"""Command-line front end.

One subcommand per operation family; problems arrive as JSON documents via
``--file`` or standard input, reports leave as JSON on standard output
(``--plain`` for a terse human rendering), deterministic (sorted keys, no
timestamps) and echoing the canonicalized input.  The CLI checks only the
document: JSON, kind, fields, their JSON types and m against the number of
sequences.  Each value in it is checked by the library, whose error is
printed as raised.

Exit codes: 0 success, 1 input or usage error or unwritable standard output,
2 oracle disagreement, 3 budget exceeded, which includes a request that runs
out of memory.  Every subcommand takes ``--file`` and ``--plain``, takes the
other flags only where ``SUBCOMMANDS`` lists them, and exits 1 on any other:
``--cross-check`` (``lr``, ``f``, ``positivity``, ``cone``) re-derives
values by every available method and fails loudly on disagreement,
``--variant`` (``cone``, ``horn-gen``) overrides the document's valid variant, and
``--budget`` (all but ``facets26`` and ``selftest``) caps the enumeration.
``_parse_argv`` reads a subcommand followed by flags named exactly, the
form every client sends, itself; any other argv goes to ``argparse``, built
from the same two tables ``SUBCOMMANDS`` and ``FLAGS``, which prints the
help and words every usage error.  So a request of exact flags never
imports that parser: with ``gettext``, ``locale`` and the subparsers it
would build, it cost a request more than the mathematics of most requests.

Each kind's handler imports the layers it uses when it runs, so a request
compiles and loads no other: ``lr`` needs only the LR kernels; ``stretch``,
``f1``, ``f2`` and ``f`` add the chain engine; the Horn kinds (``cone``,
``horn_gen``, ``factorize``, ``facets26``) add the Horn and LP layers;
``positivity`` the hive and LP layers; ``f --cross-check`` the hive, LP and
quiver layers; and ``selftest`` every layer.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .errors import BudgetExceededError, InvalidInputError, OracleDisagreementError, SunlrError
from .lr import lr_coefficient, lr_hive_count
from .partitions import canonical, iter_partition_tuples

NO_INPUT_KINDS = ("facets26", "selftest")


def _need(doc, key, kind):
    if key not in doc:
        raise InvalidInputError(f"problem of kind {kind!r} needs field {key!r}")
    return doc[key]


def _int_field(doc, key, kind):
    v = _need(doc, key, kind)
    if not isinstance(v, int) or isinstance(v, bool):
        raise InvalidInputError(f"field {key!r} must be an integer, got {v!r}")
    return v


def _lists(doc, key, kind):
    v = _need(doc, key, kind)
    if not isinstance(v, list) or not all(isinstance(l, list) for l in v):
        raise InvalidInputError(f"field {key!r} must be a list of lists")
    return v


def parse_problem(text: str, expected_kind=None) -> SimpleNamespace:
    """Parse a JSON problem document and check its structure; its values are the library's to check.

    Fields its kind does not use keep defaults.
    """
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed JSON: {exc}")
    except RecursionError:
        raise InvalidInputError("JSON document nested too deeply")
    if not isinstance(doc, dict):
        raise InvalidInputError("problem document must be a JSON object")
    kind = doc.get("kind", expected_kind)
    if kind is None:
        raise InvalidInputError("missing 'kind' field")
    if kind not in KINDS:
        raise InvalidInputError(f"unknown kind {kind!r}, expected one of {KINDS}")
    if expected_kind is not None and kind != expected_kind:
        raise InvalidInputError(f"subcommand expects kind {expected_kind!r} but file says {kind!r}")

    p = SimpleNamespace(kind=kind, n=0, m=0, N_max=0, lambdas=None, subsets=None, variant="one", of="f_sun")
    if kind in NO_INPUT_KINDS:
        return p
    p.n = _int_field(doc, "n", kind)

    if kind == "lr":
        p.lambdas = _lists(doc, "lambdas", kind)
        if len(p.lambdas) != 3:
            raise InvalidInputError("kind 'lr' needs exactly three sequences [lambda, mu, nu]")
        return p

    if kind == "horn_gen":
        p.m = _int_field(doc, "m", kind)
    else:
        p.lambdas = _lists(doc, "lambdas", kind)
        p.m = _int_field(doc, "m", kind) if "m" in doc else len(p.lambdas)
        if p.m != len(p.lambdas):
            raise InvalidInputError(f"m={p.m} but {len(p.lambdas)} sequences given")

    if kind == "stretch":
        p.N_max = _int_field(doc, "N_max", kind)
        p.of = doc.get("of", "f_sun")
    if kind == "cone" or kind == "horn_gen":
        p.variant = doc.get("variant", "one")
    if kind == "factorize" and doc.get("subsets") is not None:
        p.subsets = _lists(doc, "subsets", kind)
    return p


def _report(p, **fields):
    """A report opening with the header the chain kinds share: kind, n, m, echoed input."""
    echo = [list(canonical(l)) for l in p.lambdas]
    return {"kind": p.kind, "n": p.n, "m": p.m, "input": {"lambdas": echo}, **fields}


def _run_lr(p, cross_check, budget):
    lam, mu, nu = p.lambdas
    value = lr_coefficient(lam, mu, nu, p.n)
    report = {
        "kind": "lr",
        "n": p.n,
        "input": {"lambda": list(lam), "mu": list(mu), "nu": list(nu)},
        "value": value,
        "methods": ["tableau"],
    }
    if cross_check:
        methods = {"tableau": value}
        if all(not x or min(x) >= 0 for x in (lam, mu, nu)):
            # the hive enumeration pads to n: n(n-1)/2 choice points whatever the partitions
            points = p.n * (p.n - 1) // 2
            if budget is not None and points > budget:
                raise BudgetExceededError(f"hive enumeration has {points} choice points, budget is {budget}")
            methods["hive"] = lr_hive_count(lam, mu, nu, p.n)
        report["methods"] = sorted(methods)
        report["cross_check"] = methods
        if len(set(methods.values())) > 1:
            raise OracleDisagreementError(f"lr methods disagree: {methods}")
    return report


def _run_f_sun(p, cross_check, budget):
    from . import generalized

    value = generalized.f_sun(p.lambdas, p.n, budget=budget)
    report = _report(p, value=value, methods=["chain"])
    if cross_check:
        from . import hive, quiver

        # the LP first: its row budget comes before any O(n) work, and its
        # rows outnumber each hive factor's choice points, so it bounds them too
        positive = hive.positivity(p.lambdas, p.n, p.m, budget=budget)
        methods = {"chain": value, "sun_hive_count": hive.count_sun_hives(p.lambdas, p.n, budget=budget)}
        Q = quiver.SunQuiver(p.n, p.m // 2)
        methods["weight_space"] = quiver.dim_si_sun(Q, quiver.weight_sigma1(p.lambdas, p.n))
        report["methods"] = sorted(methods) + ["lp_positivity"]
        report["cross_check"] = {**methods, "lp_positivity": positive}
        if len(set(methods.values())) > 1 or positive != (value > 0):
            raise OracleDisagreementError(
                f"f_sun methods disagree: {methods}, lp positivity {positive}"
            )
    return report


def _run_open_chain(p, cross_check, budget):
    from . import generalized

    fn = generalized.f1 if p.kind == "f1" else generalized.f2
    return _report(p, value=fn(p.lambdas, p.n, budget=budget), methods=["chain"])


def _run_positivity(p, cross_check, budget):
    from . import hive

    positive = hive.positivity(p.lambdas, p.n, p.m, budget=budget)
    report = _report(p, positive=positive, methods=["lp_feasibility"])
    if cross_check:
        from . import generalized

        value = generalized.f_sun(p.lambdas, p.n, budget=budget)
        report["methods"] = ["chain", "lp_feasibility"]
        report["cross_check"] = {"chain_value": value, "lp_positive": positive}
        if positive != (value > 0):
            raise OracleDisagreementError(
                f"positivity disagrees: chain value {value}, LP {positive}"
            )
    return report


def _echo_rational(x) -> str:
    """An accepted cone entry as the report prints it: an int as it is, else as a reduced Fraction."""
    if type(x) is int:
        return str(x)
    from fractions import Fraction  # only a non-int entry needs it: no integer request loads it

    return str(Fraction(x))


def _run_cone(p, cross_check, budget):
    from . import horn

    member = horn.in_cone(p.lambdas, p.n, p.m, p.variant, budget=budget)
    report = {
        "kind": "cone",
        "n": p.n,
        "m": p.m,
        "variant": p.variant,
        "input": {"lambdas": [[_echo_rational(x) for x in l] for l in p.lambdas]},
        "in_cone": member,
        "methods": [f"horn_{p.variant}"],
    }
    if cross_check:
        other = "nonzero" if p.variant == "one" else "one"
        member2 = horn.in_cone(p.lambdas, p.n, p.m, other, budget=budget)
        report["methods"] = sorted([f"horn_{p.variant}", f"horn_{other}"])
        report["cross_check"] = {f"horn_{p.variant}": member, f"horn_{other}": member2}
        if member != member2:
            raise OracleDisagreementError(
                f"cone variants disagree: {p.variant}={member}, {other}={member2}"
            )
    return report


def _run_horn_gen(p, cross_check, budget):
    from . import horn

    tuples = horn.generate_T(p.n, p.m, p.variant, budget=budget)
    return {
        "kind": "horn_gen",
        "n": p.n,
        "m": p.m,
        "variant": p.variant,
        "count": len(tuples),
        "tuples": [[list(s) for s in st.subsets] for st in tuples],
        "inequalities": [st.schema() for st in tuples],
    }


def _run_stretch(p, cross_check, budget):
    from . import generalized

    problem = generalized.ChainProblem(p.of, p.n, p.lambdas)
    values = generalized.stretched_table(problem, p.N_max, budget=budget)
    return _report(p, of=p.of, N_max=p.N_max, values=values)


def _run_factorize(p, cross_check, budget):
    from . import horn

    if p.subsets is None:
        tight = horn.find_tight_tuples(p.lambdas, p.n, budget=budget)
        if not tight:
            raise InvalidInputError("no tight nonempty inequality found for this tuple")
        st = tight[0]
    else:
        st = horn.SubsetTuple(p.subsets, p.n)
    rep = horn.factorization_check(p.lambdas, st, p.n, budget=budget)
    rep.update(_report(p, subsets=[list(s) for s in st.subsets]))
    if not rep["passed"]:
        raise OracleDisagreementError(
            f"factorization identity failed: {rep['value']} != "
            f"{rep['value_star']} * {rep['value_sharp']}"
        )
    return rep


def _run_facets26(p, cross_check, budget):
    from . import horn

    closure = [[list(s) for s in st.subsets] for st in horn.facets_2_6_closure()]
    return {"kind": "facets26", **horn.facets_2_6_golden(), "closure_count": len(closure), "closure": closure}


def _run_selftest(p, cross_check, budget):
    """Exhaustive small-instance agreement suites; raises on any mismatch."""
    from itertools import product

    from . import hive, horn, quiver
    from .generalized import LevelOneSpec, f_sun, level1_f, level1_lambdas

    def four_way(n, lams):
        a = f_sun(lams, n)
        c = quiver.dim_si_sun(quiver.SunQuiver(n, 2), quiver.weight_sigma1(lams, n))
        return a == hive.count_sun_hives(lams, n) == c and hive.positivity(lams, n, 4) == (a > 0)

    def level1(j, N):
        spec = LevelOneSpec(j)
        return level1_f(spec, N) == f_sun(level1_lambdas(spec, N), max(1, *j))

    triples = list(iter_partition_tuples(2, 2, 3))
    small = [(n, lams) for n in (1, 2) for lams in iter_partition_tuples(n, 1, 4)]
    # suite -> (agreement check, cases as its argument tuples)
    table = {
        "lr_tableau_vs_hive": (lambda *lams: lr_coefficient(*lams, 2) == lr_hive_count(*lams, 2), triples),
        "four_way_oracle": (four_way, small),
        "horn_equivalence": (lambda n, lams: horn.in_cone(lams, n, 4, "one") == (f_sun(lams, n) != 0), small),
        "level1_closed_form": (level1, list(product(product(range(2), repeat=4), (1, 2)))),
    }
    suites = {}
    for name, (agrees, cases) in table.items():
        for case in cases:
            if not agrees(*case):
                raise OracleDisagreementError(f"selftest {name} mismatch at {case}")
        suites[name] = len(cases)
    return {"kind": "selftest", "passed": True, "suites": suites}


# subcommand -> (kind, handler(problem, cross_check, budget), flags the handler
# reads besides --file and --plain); the CLI takes no other flag
SUBCOMMANDS = {
    "lr": ("lr", _run_lr, ("--cross-check", "--budget")),
    "f": ("f_sun", _run_f_sun, ("--cross-check", "--budget")),
    "f1": ("f1", _run_open_chain, ("--budget",)),
    "f2": ("f2", _run_open_chain, ("--budget",)),
    "positivity": ("positivity", _run_positivity, ("--cross-check", "--budget")),
    "cone": ("cone", _run_cone, ("--cross-check", "--variant", "--budget")),
    "horn-gen": ("horn_gen", _run_horn_gen, ("--variant", "--budget")),
    "stretch": ("stretch", _run_stretch, ("--budget",)),
    "facets26": ("facets26", _run_facets26, ()),
    "factorize": ("factorize", _run_factorize, ("--budget",)),
    "selftest": ("selftest", _run_selftest, ()),
}

SUBCOMMAND_KIND = {name: kind for name, (kind, _, _) in SUBCOMMANDS.items()}
KINDS = tuple(SUBCOMMAND_KIND.values())

# flag -> (conversion of its value: None for a switch, the tuple of its
# choices, or a type; help text); every subcommand takes --file and --plain
FLAGS = {
    "--file": (str, "problem JSON (default: standard input)"),
    "--cross-check": (None, "re-derive the value by every available method, exit 2 on disagreement"),
    "--variant": (("one", "nonzero"), "Horn variant, overriding the document's"),
    "--budget": (int, "cap on the enumeration, exit 3 past it"),
    "--plain": (None, "print key: value lines, not JSON"),
}


def run(p: SimpleNamespace, cross_check=False, budget=None) -> dict:
    """Dispatch a validated problem; returns the report payload."""
    handler = next(h for kind, h, _ in SUBCOMMANDS.values() if kind == p.kind)
    return handler(p, cross_check, budget)


def _render_plain(report: dict) -> str:
    lines = []
    for key in sorted(report.keys() - {"input", "tuples", "facets"}):
        val = report[key]
        if isinstance(val, (dict, list)):
            val = json.dumps(val, sort_keys=True)
        lines.append(f"{key}: {val}")
    return "\n".join(lines)


def _stdlib_parse(argv):
    """Parse ``argv`` with the standard library parser, built from ``SUBCOMMANDS`` and ``FLAGS``.

    It prints the help and exits 0 on ``-h``, and raises every usage error
    as ``InvalidInputError`` (exit 1: exit 2 means oracle disagreement).
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise InvalidInputError(f"{self.prog}: {message}")

    parser = Parser(prog="sunlr", description="Exact generalized Littlewood-Richardson multiplicities and cone machinery")
    parser.set_defaults(cross_check=False, variant=None, budget=None)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, _, flags) in SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        for flag in ("--file", *flags, "--plain"):
            convert, text = FLAGS[flag]
            if convert is None:
                sp.add_argument(flag, action="store_true", help=text)
            elif isinstance(convert, tuple):
                sp.add_argument(flag, choices=convert, help=text)
            else:
                sp.add_argument(flag, type=convert, help=text)
    return parser.parse_args(argv)


def _parse_argv(argv):
    """Read ``subcommand [flags]``, each flag one ``SUBCOMMANDS`` lists for it, named exactly.

    A switch takes no value, and a valued flag takes the next token when it
    does not start with ``-`` and converts.  Any other argv (a prefix,
    ``=``, ``--``, ``-h``, an extra token or a bad value) goes to
    ``_stdlib_parse``, which reads it or words its usage error.
    """
    if not argv or argv[0] not in SUBCOMMANDS:
        return _stdlib_parse(argv)
    args = {"subcommand": argv[0], "file": None, "cross_check": False, "variant": None, "budget": None, "plain": False}
    names = ("--file", *SUBCOMMANDS[argv[0]][2], "--plain")
    tokens = iter(argv[1:])
    for name in tokens:
        if name not in names:
            return _stdlib_parse(argv)
        convert, value = FLAGS[name][0], True
        if convert is not None:
            value = next(tokens, "-")  # a missing value falls back as a flag would
            if value[:1] == "-" or isinstance(convert, tuple) and value not in convert:
                return _stdlib_parse(argv)
            if convert is int:
                try:
                    value = int(value)
                except ValueError:
                    return _stdlib_parse(argv)
        args[name[2:].replace("-", "_")] = value
    return SimpleNamespace(**args)


def _write(text) -> int:
    """Print ``text``; if stdout fails, say so on stderr, point fd 1 at the null device and return 1."""
    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:
        os.dup2(null := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        os.close(null)
        print(f"sunlr: cannot write standard output: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
        kind = SUBCOMMAND_KIND[args.subcommand]
        try:
            if args.file is not None:
                with open(args.file) as fh:
                    text = fh.read()
            elif kind in NO_INPUT_KINDS:
                text = ""
            else:
                text = sys.stdin.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidInputError(f"cannot read {'standard input' if args.file is None else args.file}: {exc}")
        problem = parse_problem(text, expected_kind=kind)
        if args.variant:
            from .horn import check_variant  # the variant it replaces must be valid all the same

            check_variant(problem.variant)
            problem.variant = args.variant
        report = run(problem, cross_check=args.cross_check, budget=args.budget)
    except (SunlrError, MemoryError) as exc:
        if isinstance(exc, MemoryError):
            exc = BudgetExceededError("ran out of memory; set --budget to refuse inputs this large")
        payload = {"error": exc.code, "message": str(exc)}
        return _write(json.dumps(payload, sort_keys=True)) or exc.exit_code
    return _write(_render_plain(report) if args.plain else json.dumps(report, sort_keys=True, indent=2))


if __name__ == "__main__":
    sys.exit(main())
