"""Command-line front end.

One subcommand per operation family; problems arrive as JSON documents via
``--file`` or standard input, reports leave as JSON on standard output
(``--plain`` for a terse human rendering), deterministic (sorted keys, no
timestamps) and echoing the canonicalized input.  The CLI checks only the
document: JSON, kind, fields, their JSON types and m against the number of
sequences.  Each value in it is checked by the library, whose error is
printed as raised.

Exit codes: 0 success, 1 input or usage error, 2 oracle disagreement, 3
budget exceeded, which includes a request that runs out of memory.  Every
subcommand takes ``--file`` and ``--plain``, takes the other flags only
where ``SUBCOMMANDS`` lists them, and exits 1 on any other:
``--cross-check`` (``lr``, ``f``, ``positivity``, ``cone``) re-derives
values by every available method and fails loudly on disagreement,
``--variant`` (``cone``, ``horn-gen``) overrides the document's valid variant, and
``--budget`` (all but ``facets26`` and ``selftest``) caps the enumeration.

Each kind's handler imports the layers it uses when it runs, so a request
compiles and loads no other: ``lr`` needs only the LR kernels; ``stretch``,
``f1``, ``f2`` and ``f`` add the chain engine; the Horn kinds (``cone``,
``horn_gen``, ``factorize``, ``facets26``) add the Horn and LP layers;
``positivity`` the hive and LP layers; ``f --cross-check`` the hive, LP and
quiver layers; and ``selftest`` every layer.
"""

from __future__ import annotations

import argparse
import json
import sys

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


def parse_problem(text: str, expected_kind=None) -> argparse.Namespace:
    """Parse a JSON problem document and check its structure; its values are the library's to check.

    Fields its kind does not use keep defaults.
    """
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed JSON: {exc}")
    if not isinstance(doc, dict):
        raise InvalidInputError("problem document must be a JSON object")
    kind = doc.get("kind", expected_kind)
    if kind is None:
        raise InvalidInputError("missing 'kind' field")
    if kind not in KINDS:
        raise InvalidInputError(f"unknown kind {kind!r}, expected one of {KINDS}")
    if expected_kind is not None and kind != expected_kind:
        raise InvalidInputError(f"subcommand expects kind {expected_kind!r} but file says {kind!r}")

    p = argparse.Namespace(kind=kind, n=0, m=0, N_max=0, lambdas=None, subsets=None, variant="one", of="f_sun")
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
        report["cross_check"] = {k: v for k, v in sorted(methods.items())}
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
        methods = {"chain": value}
        methods["sun_hive_count"] = hive.count_sun_hives(p.lambdas, p.n, budget=budget)
        Q = quiver.SunQuiver(p.n, p.m // 2)
        methods["weight_space"] = quiver.dim_si_sun(Q, quiver.weight_sigma1(p.lambdas, p.n))
        report["methods"] = sorted(methods) + ["lp_positivity"]
        report["cross_check"] = {k: v for k, v in sorted(methods.items())}
        report["cross_check"]["lp_positivity"] = positive
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


def _run_cone(p, cross_check, budget):
    from fractions import Fraction

    from . import horn

    member = horn.in_cone(p.lambdas, p.n, p.m, p.variant, budget=budget)
    report = {
        "kind": "cone",
        "n": p.n,
        "m": p.m,
        "variant": p.variant,
        "input": {"lambdas": [[str(Fraction(x)) for x in l] for l in p.lambdas]},
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
    import itertools

    from . import generalized, hive, horn, quiver

    suites = {}

    count = 0
    for lams in iter_partition_tuples(2, 2, 3):
        lam, mu, nu = lams
        if lr_coefficient(lam, mu, nu, 2) != lr_hive_count(lam, mu, nu, 2):
            raise OracleDisagreementError(f"lr oracle mismatch at {lams}")
        count += 1
    suites["lr_tableau_vs_hive"] = count

    count = 0
    for n in (1, 2):
        Q = quiver.SunQuiver(n, 2)
        for lams in iter_partition_tuples(n, 1, 4):
            a = generalized.f_sun(lams, n)
            b = hive.count_sun_hives(lams, n)
            c = quiver.dim_si_sun(Q, quiver.weight_sigma1(lams, n))
            d = hive.positivity(lams, n, 4)
            if not (a == b == c and d == (a > 0)):
                raise OracleDisagreementError(f"four-way oracle mismatch at n={n}, {lams}")
            count += 1
    suites["four_way_oracle"] = count

    count = 0
    for n in (1, 2):
        for lams in iter_partition_tuples(n, 1, 4):
            member = horn.in_cone(lams, n, 4, "one")
            if member != (generalized.f_sun(lams, n) != 0):
                raise OracleDisagreementError(f"cone/nonvanishing mismatch at n={n}, {lams}")
            count += 1
    suites["horn_equivalence"] = count

    count = 0
    for j in itertools.product(range(2), repeat=4):
        spec = generalized.LevelOneSpec(j)
        for N in (1, 2):
            a = generalized.level1_f(spec, N)
            b = generalized.f_sun(generalized.level1_lambdas(spec, N), max(1, max(j, default=1)))
            if a != b:
                raise OracleDisagreementError(f"level-1 closed form mismatch at j={j}, N={N}")
            count += 1
    suites["level1_closed_form"] = count

    return {"kind": "selftest", "passed": True, "suites": suites}


# subcommand -> (kind, handler(problem, cross_check, budget), flags the handler
# reads besides --file and --plain); main registers no other flag
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

FLAGS = {
    "--cross-check": dict(action="store_true"),
    "--variant": dict(choices=["one", "nonzero"]),
    "--budget": dict(type=int),
}


def run(p: argparse.Namespace, cross_check=False, budget=None) -> dict:
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


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as input errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise InvalidInputError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _Parser(
        prog="sunlr",
        description="Exact generalized Littlewood-Richardson multiplicities and cone machinery",
    )
    parser.set_defaults(cross_check=False, variant=None, budget=None)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, _, flags) in SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--file", help="problem JSON (default: standard input)")
        for flag in flags:
            sp.add_argument(flag, **FLAGS[flag])
        sp.add_argument("--plain", action="store_true")

    try:
        args = parser.parse_args(argv)
        kind = SUBCOMMAND_KIND[args.subcommand]
        if args.file is not None:
            try:
                with open(args.file) as fh:
                    text = fh.read()
            except OSError as exc:
                raise InvalidInputError(f"cannot read {args.file}: {exc}")
        elif kind in NO_INPUT_KINDS:
            text = ""
        else:
            text = sys.stdin.read()
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
        print(json.dumps(payload, sort_keys=True))
        return exc.exit_code

    if args.plain:
        print(_render_plain(report))
    else:
        print(json.dumps(report, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
