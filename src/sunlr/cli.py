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
``_parse_argv`` reads argv from ``SUBCOMMANDS`` and ``FLAGS`` by the
standard library parser's rules and in its usage-error wording, which the
golden corpus pins, without importing that parser: with ``gettext``,
``locale`` and the subparsers it would build, it cost a request more than
the mathematics of most requests.

Each kind's handler imports the layers it uses when it runs, so a request
compiles and loads no other: ``lr`` needs only the LR kernels; ``stretch``,
``f1``, ``f2`` and ``f`` add the chain engine; the Horn kinds (``cone``,
``horn_gen``, ``factorize``, ``facets26``) add the Horn and LP layers;
``positivity`` the hive and LP layers; ``f --cross-check`` the hive, LP and
quiver layers; and ``selftest`` every layer.
"""

from __future__ import annotations

import json
import re
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

# flag -> (conversion of its value: None for a switch, the tuple of its
# choices, or a type; help text); every subcommand takes --file and --plain
FLAGS = {
    "--file": (str, "problem JSON (default: standard input)"),
    "--cross-check": (None, "re-derive the value by every available method, exit 2 on disagreement"),
    "--variant": (("one", "nonzero"), "Horn variant, overriding the document's"),
    "--budget": (int, "cap on the enumeration, exit 3 past it"),
    "--plain": (None, "print key: value lines, not JSON"),
}
HELP = ("-h", "--help")


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


def _usage_error(prog, message):
    """A usage error is an input error (exit 1): exit 2 means oracle disagreement."""
    return InvalidInputError(f"{prog}: {message}")


def _option(token, names, prog):
    """How ``token`` reads against the option strings ``names``.

    None for an argument, else (the option it names, None if it names none;
    its value after ``=``, or None).  An option is named exactly or by a
    unique prefix, and ``-h`` also with a value glued on, as in ``-hh``.  A
    negative number or a token with a space that names no option is an
    argument.
    """
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, value
    if token[1] == "-":
        hits, value = [n for n in names if n.startswith(name)], value if eq else None
    else:
        hits, value = [n for n in names if n == token[:2]], token[2:]
    if len(hits) > 1:
        raise _usage_error(prog, f"ambiguous option: {token} could match {', '.join(hits)}")
    if hits:
        return hits[0], value
    # compiled here, on first use: a request of exact flags never reaches it
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None
    return None, None


def _help(sub):
    """The usage text of ``sunlr`` (``sub`` None) or of one subcommand."""
    if sub is None:
        return (
            f"usage: sunlr [-h] {{{','.join(SUBCOMMANDS)}}} ...\n\n"
            "Exact generalized Littlewood-Richardson multiplicities and cone machinery.\n"
            "Each subcommand reads a JSON problem document; sunlr SUBCOMMAND -h lists its flags.\n"
        )
    usage, rows = ["[-h]"], [("-h, --help", "show this help message and exit")]
    for flag in ("--file", *SUBCOMMANDS[sub][2], "--plain"):
        convert, text = FLAGS[flag]
        if isinstance(convert, tuple):
            flag += f" {{{','.join(convert)}}}"
        elif convert is not None:
            flag += f" {flag[2:].upper()}"
        usage.append(f"[{flag}]")
        rows.append((flag, text))
    width = max(len(flag) for flag, _ in rows) + 2
    lines = [f"usage: sunlr {sub} {' '.join(usage)}", "", "options:"]
    return "\n".join(lines + [f"  {flag:<{width}}{text}" for flag, text in rows]) + "\n"


def _take_help(prog, name, value, sub):
    """Print the usage text and exit 0, unless ``value`` is one ``-h`` or ``--help`` does not take."""
    if value is not None:
        # -h reads a glued value as more short options: -hh is -h -h, -hx refuses 'x'
        rest = value.lstrip("h") if name == "-h" else value
        if rest or not value:
            raise _usage_error(prog, f"argument -h/--help: ignored explicit argument {rest!r}")
    print(_help(sub), end="")
    raise SystemExit(0)


def _parse_argv(argv):
    """Read ``[-h] subcommand [flags]``, taking only the flags ``SUBCOMMANDS`` lists for it.

    A flag is named exactly or by a unique prefix and takes its value as
    ``--flag value`` or ``--flag=value``; the last repeat wins.  Every
    usage error raises ``InvalidInputError``, with the message and in the
    order of the standard library parser.
    """
    extras = []
    i = 0
    while i < len(argv) and argv[i] != "--" and (opt := _option(argv[i], HELP, "sunlr")) is not None:
        if opt[0] is None:
            extras.append(argv[i])
        else:
            _take_help("sunlr", *opt, None)
        i += 1
    if argv[i:] in ([], ["--"]):
        raise _usage_error("sunlr", "the following arguments are required: subcommand")
    sub = argv[i]
    if sub not in SUBCOMMANDS:
        choices = ", ".join(map(repr, SUBCOMMANDS))
        raise _usage_error("sunlr", f"argument subcommand: invalid choice: {sub!r} (choose from {choices})")

    prog = f"sunlr {sub}"
    names = (*HELP, "--file", *SUBCOMMANDS[sub][2], "--plain")
    rest = argv[i + 1 :]
    # everything from the first -- on is an argument, so an unrecognized one
    head = rest[: rest.index("--")] if "--" in rest else rest
    opts = [_option(token, names, prog) for token in head]  # an ambiguous prefix refuses before any flag is read
    args = SimpleNamespace(subcommand=sub, file=None, cross_check=False, variant=None, budget=None, plain=False)
    j = 0
    while j < len(head):
        token, opt = head[j], opts[j]
        j += 1
        if opt is None or opt[0] is None:
            extras.append(token)
            continue
        name, value = opt
        if name in HELP:
            _take_help(prog, name, value, sub)
        convert = FLAGS[name][0]
        if convert is None:
            if value is not None:
                raise _usage_error(prog, f"argument {name}: ignored explicit argument {value!r}")
            value = True
        elif value is None:
            if j == len(head) or opts[j] is not None:
                raise _usage_error(prog, f"argument {name}: expected one argument")
            value = head[j]
            j += 1
        if convert is int:
            try:
                value = int(value)
            except ValueError:
                raise _usage_error(prog, f"argument {name}: invalid int value: {value!r}")
        elif isinstance(convert, tuple) and value not in convert:
            choices = ", ".join(map(repr, convert))
            raise _usage_error(prog, f"argument {name}: invalid choice: {value!r} (choose from {choices})")
        setattr(args, name[2:].replace("-", "_"), value)
    extras += rest[len(head) :]
    if extras:
        raise _usage_error("sunlr", f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
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
