import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunlr import cli, generalized, hive, horn
from sunlr.cli import SUBCOMMAND_KIND, SUBCOMMANDS, main, parse_problem, run
from sunlr.errors import InvalidInputError, SunlrError
from sunlr.lr import lr_coefficient


def doc(**kw):
    return json.dumps(kw)


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_parse_valid_f_sun():
    p = parse_problem(doc(kind="f_sun", n=2, m=6, lambdas=[[1, 0]] * 6))
    assert p.kind == "f_sun" and p.n == 2 and p.m == 6


def test_main_rejects_increasing_sequence(capsys, monkeypatch):
    stdin = doc(kind="f_sun", n=2, m=4, lambdas=[[0, 1], [1, 0], [1, 0], [1, 0]])
    code, out = run_cli(capsys, ["f"], stdin=stdin, monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(out) == {"error": "invalid-input", "message": "lambda(1) [0, 1] is not weakly decreasing"}


def test_main_rejects_odd_m(capsys, monkeypatch):
    code, out = run_cli(capsys, ["f"], stdin=doc(kind="f_sun", n=1, m=5, lambdas=[[1]] * 5), monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(out) == {
        "error": "unsupported-shape",
        "message": "need an even number m >= 4 of flags, got m=5",
    }


def test_parse_rejects_malformed_json():
    with pytest.raises(InvalidInputError):
        parse_problem("{nope")


def test_parse_rejects_kind_mismatch():
    with pytest.raises(InvalidInputError):
        parse_problem(doc(kind="f1", n=1, lambdas=[[1]] * 4), expected_kind="f_sun")


def test_parse_rejects_missing_kind_without_a_subcommand():
    with pytest.raises(InvalidInputError, match="^missing 'kind' field$"):
        parse_problem(doc(n=1, lambdas=[[1]] * 4))


def test_main_rejects_float_in_cone(capsys, monkeypatch):
    stdin = doc(kind="cone", n=1, m=4, lambdas=[[0.5]] * 4)
    code, out = run_cli(capsys, ["cone"], stdin=stdin, monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(out) == {
        "error": "invalid-input",
        "message": "lambda(1) [0.5] has a float or boolean entry; integers only, or 'p/q' in a cone",
    }


def test_run_f_sun_value():
    p = parse_problem(doc(kind="f_sun", n=2, m=6, lambdas=[[1, 0]] * 6))
    report = run(p, cross_check=True)
    assert report["value"] == 2
    assert report["cross_check"]["sun_hive_count"] == 2
    assert report["cross_check"]["weight_space"] == 2
    assert report["cross_check"]["lp_positivity"] is True


def test_run_echoes_canonical_input():
    p = parse_problem(doc(kind="f_sun", n=2, m=4, lambdas=[[1, 0], [1, 0], [0, 0], [0, 0]]))
    report = run(p)
    assert report["input"]["lambdas"] == [[1], [1], [], []]


def test_main_exit_codes(capsys, monkeypatch):
    code, out = run_cli(
        capsys,
        ["f"],
        stdin=doc(kind="f_sun", n=1, m=4, lambdas=[[1]] * 4),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["value"] == 2

    code, out = run_cli(
        capsys,
        ["f"],
        stdin=doc(kind="f_sun", n=1, m=4, lambdas=[[0, 1]] * 4),
        monkeypatch=monkeypatch,
    )
    assert code == 1
    assert json.loads(out)["error"] == "invalid-input"

    code, out = run_cli(capsys, ["horn-gen"], stdin=doc(kind="horn_gen", n=3, m=6), monkeypatch=monkeypatch)
    assert code == 3
    assert json.loads(out)["error"] == "budget-exceeded"


def test_main_maps_memory_error_to_budget_exceeded(capsys, monkeypatch):
    def exhausted(p, cross_check, budget):
        raise MemoryError

    kind, _, flags = SUBCOMMANDS["positivity"]
    monkeypatch.setitem(SUBCOMMANDS, "positivity", (kind, exhausted, flags))
    stdin = doc(kind="positivity", n=40, m=4, lambdas=[[1]] * 4)
    code, out = run_cli(capsys, ["positivity"], stdin=stdin, monkeypatch=monkeypatch)
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == "budget-exceeded"
    assert "--budget" in payload["message"]


@pytest.mark.parametrize(
    "argv",
    [["f", "--budget", "x"], ["nosuch"], ["f", "--json"], []],
    ids=["bad-budget", "unknown-subcommand", "json-flag", "no-subcommand"],
)
def test_main_usage_errors_are_input_errors(capsys, monkeypatch, argv):
    # exit 2 means oracle disagreement, so argparse's own exit 2 must not leak
    code, out = run_cli(capsys, argv, stdin=doc(kind="f_sun", n=1, lambdas=[[1]] * 4), monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(out)["error"] == "invalid-input"


def test_main_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(sub in out for sub in SUBCOMMANDS)
    # each subcommand's help names --file, --plain and exactly the flags it reads
    for sub, (_, _, flags) in SUBCOMMANDS.items():
        for argv in ([sub, "--help"], [sub, "-h"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            named = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
            assert named == {"--help", "--file", "--plain", *flags}, argv


REPORT_F = {
    "input": {"lambdas": [[2, 1], [1, 1], [1], [2]]},
    "kind": "f_sun",
    "m": 4,
    "methods": ["chain"],
    "n": 2,
    "value": 2,
}


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["f", "--budget=5"], 0, REPORT_F),
        (["f", "--b", "5"], 0, REPORT_F),
        (["f", "--budget", "3", "--budget", "1000"], 0, REPORT_F),
        (["f", "--budget", "1000", "--budget", "-1"], 3, None),
        (["f", "--budget", "-1"], 3, None),
        (["f", "--pl"], 0, 'kind: f_sun\nm: 4\nmethods: ["chain"]\nn: 2\nvalue: 2\n'),
        (
            ["f", "--cross"],
            0,
            {
                **REPORT_F,
                "cross_check": {"chain": 2, "lp_positivity": True, "sun_hive_count": 2, "weight_space": 2},
                "methods": ["chain", "sun_hive_count", "weight_space", "lp_positivity"],
            },
        ),
    ],
)
def test_main_accepted_argv_forms(capsys, monkeypatch, argv, code, out):
    # unique prefixes, --flag=value, a repeat (the last one wins) and a negative budget
    if out is None:
        out = '{"error": "budget-exceeded", "message": "chain enumeration needs 3 states, budget is -1"}\n'
    elif isinstance(out, dict):
        out = json.dumps(out, sort_keys=True, indent=2) + "\n"
    assert run_cli(capsys, argv, stdin=json.dumps(VALID["f"]), monkeypatch=monkeypatch) == (code, out)


def test_main_deterministic_output(capsys, monkeypatch):
    payload = doc(kind="f_sun", n=2, m=4, lambdas=[[2, 1], [1, 0], [1, 0], [2, 1]])
    _, out1 = run_cli(capsys, ["f"], stdin=payload, monkeypatch=monkeypatch)
    _, out2 = run_cli(capsys, ["f"], stdin=payload, monkeypatch=monkeypatch)
    assert out1 == out2


def test_main_positivity_example(capsys, monkeypatch):
    code, out = run_cli(
        capsys,
        ["positivity"],
        stdin=doc(kind="positivity", n=2, m=6, lambdas=[[1, 0], [3, 0], [1, 0], [0, 0], [1, 0], [0, 0]]),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["positive"] is False


def test_main_positivity_budget_stops_before_elimination(capsys, monkeypatch):
    from sunlr import linprog

    def refuse(*args):
        raise AssertionError("the LP ran despite the budget")

    monkeypatch.setattr(linprog, "eliminate_equalities", refuse)
    monkeypatch.setattr(linprog, "simplex_feasible", refuse)
    lams = [[1]] * 4
    # at n = 8 the chain, hive and weight-space routes fit in 1000 states, but
    # the LP has 1300 rows and would take seconds
    for argv, payload in [
        (["positivity", "--budget", "1"], doc(kind="positivity", n=4, lambdas=lams)),
        (["f", "--cross-check", "--budget", "1000"], doc(kind="f_sun", n=8, lambdas=lams)),
    ]:
        code, out = run_cli(capsys, argv, stdin=payload, monkeypatch=monkeypatch)
        assert code == 3, argv
        assert json.loads(out)["message"].startswith("linear program needs"), argv


def test_main_positivity_budget_refuses_before_the_system_is_built(capsys, monkeypatch):
    from sunlr import hive

    hive.reduced_system.cache_clear()
    payload = doc(kind="positivity", n=4, m=4, lambdas=[[1]] * 4)
    code, out = run_cli(capsys, ["positivity", "--budget", "1"], stdin=payload, monkeypatch=monkeypatch)
    assert code == 3
    assert json.loads(out)["message"] == "linear program needs 300 rows, budget is 1"
    assert hive.reduced_system.cache_info().currsize == 0


def test_main_positivity_budget_counts_rows(capsys, monkeypatch):
    # (1)^4 at n = 2 gives 64 rows: a budget of 64 admits the LP, 63 refuses it
    payload = doc(kind="f_sun", n=2, lambdas=[[1]] * 4)
    argv = ["f", "--cross-check", "--budget"]
    code, out = run_cli(capsys, argv + ["64"], stdin=payload, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["cross_check"]["lp_positivity"] is True
    code, out = run_cli(capsys, argv + ["63"], stdin=payload, monkeypatch=monkeypatch)
    assert code == 3
    assert json.loads(out)["message"] == "linear program needs 64 rows, budget is 63"


def test_main_lr_cross_check_budget_counts_hive_choice_points(capsys, monkeypatch):
    from sunlr import lr

    def refuse(*args):
        raise AssertionError("the hive enumeration started despite the budget")

    # the hive half pads to n, so its n(n-1)/2 choice points set its cost
    payload = doc(kind="lr", n=1000, lambdas=[[1], [1], [2]])
    with monkeypatch.context() as patched:
        patched.setattr(lr, "iter_lr_hives", refuse)
        code, out = run_cli(capsys, ["lr", "--cross-check", "--budget", "1"], stdin=payload, monkeypatch=monkeypatch)
    assert code == 3
    assert json.loads(out) == {
        "error": "budget-exceeded",
        "message": "hive enumeration has 499500 choice points, budget is 1",
    }
    code, out = run_cli(capsys, ["lr", "--cross-check"], stdin=payload, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["cross_check"] == {"hive": 1, "tableau": 1}
    # n = 3 has 3 choice points: a budget of 3 admits the hive half, 2 refuses it
    payload = doc(kind="lr", n=3, lambdas=[[2, 1], [2, 1], [3, 2, 1]])
    for budget, expected in (("3", 0), ("2", 3)):
        code, out = run_cli(capsys, ["lr", "--cross-check", "--budget", budget], stdin=payload, monkeypatch=monkeypatch)
        assert code == expected, budget


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["factorize"], doc(kind="factorize", n=2, lambdas=[[1]] * 4, subsets=[[1], [1, "a"], [], []])),
        (["factorize"], doc(kind="factorize", n=2, lambdas=[[1]] * 4, subsets=[[1], [[1]], [], []])),
        (["factorize"], doc(kind="factorize", n=2, lambdas=[[1]] * 4, subsets=[[1], [1.5], [], []])),
        (["f", "--cross-check"], doc(kind="f_sun", n=2, m=4.0, lambdas=[[1]] * 4)),
        (["cone"], doc(kind="cone", n=1, lambdas=[[True], [1], [1], [1]])),
    ],
    ids=["subset-string", "subset-list", "subset-float", "float-m", "bool-in-cone"],
)
def test_main_rejects_non_integer_fields(capsys, monkeypatch, argv, payload):
    code, out = run_cli(capsys, argv, stdin=payload, monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(out)["error"] == "invalid-input"


def test_main_lr_cross_check(capsys, monkeypatch):
    code, out = run_cli(
        capsys,
        ["lr", "--cross-check"],
        stdin=doc(kind="lr", n=3, lambdas=[[1], [1, 1], [2, 1]]),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 1 and report["cross_check"] == {"hive": 1, "tableau": 1}


def test_main_lr_cross_check_large_rank(capsys, monkeypatch):
    code, out = run_cli(
        capsys,
        ["lr", "--cross-check"],
        stdin=doc(kind="lr", n=60, lambdas=[[1], [1], [2]]),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["cross_check"] == {"hive": 1, "tableau": 1}


def test_main_cone_variant_flag(capsys, monkeypatch):
    code, out = run_cli(
        capsys,
        ["cone", "--variant", "nonzero"],
        stdin=doc(kind="cone", n=2, m=6, lambdas=[["1/2", 0]] * 6),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    report = json.loads(out)
    assert report["in_cone"] is True and report["variant"] == "nonzero"
    assert report["input"]["lambdas"][0] == ["1/2", "0"]


def test_main_cone_accepts_trailing_zeros_past_n(capsys, monkeypatch):
    # [1, 0] is [1], one part at n = 1, as the f subcommand reads it
    lambdas = [[1, 0], [1], [1], [1]]
    stdin = doc(kind="cone", n=1, lambdas=lambdas)
    code, out = run_cli(capsys, ["cone", "--cross-check"], stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert report["in_cone"] is True and report["cross_check"] == {"horn_nonzero": True, "horn_one": True}
    assert report["input"]["lambdas"][0] == ["1", "0"]
    code, out = run_cli(capsys, ["f"], stdin=doc(kind="f_sun", n=1, lambdas=lambdas), monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out)["value"] == 2


def test_main_stretch(capsys, monkeypatch):
    code, out = run_cli(
        capsys,
        ["stretch"],
        stdin=doc(kind="stretch", n=1, m=4, N_max=3, lambdas=[[1]] * 4),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["values"] == [2, 3, 4]


def test_main_factorize_with_explicit_subsets(capsys, monkeypatch):
    code, out = run_cli(
        capsys,
        ["factorize"],
        stdin=doc(
            kind="factorize",
            n=2,
            m=6,
            lambdas=[[1], [1], [1], [1], [], []],
            subsets=[[], [], [1], [1], [1], []],
        ),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["value"] == report["value_star"] * report["value_sharp"]
    # {2, 1} is the subset {1, 2}: the same report, the echoed subsets sorted
    outs = []
    for third in ([2, 1], [1, 2]):
        subsets = [[1, 2], [], third, [1, 2]]
        stdin = doc(kind="factorize", n=2, lambdas=[[], [], [3, 2], [3, 2]], subsets=subsets)
        code, out = run_cli(capsys, ["factorize"], stdin=stdin, monkeypatch=monkeypatch)
        assert code == 0, out
        outs.append(out)
    assert outs[0] == outs[1]


def test_main_facets26(capsys, monkeypatch):
    code, out = run_cli(capsys, ["facets26", "--plain"], stdin="", monkeypatch=monkeypatch)
    assert code == 0
    assert "n: 2" in out and "m: 6" in out


def test_main_selftest(capsys, monkeypatch):
    code, out = run_cli(capsys, ["selftest"], stdin="", monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize(
    "suite, name, fake",
    [
        ("lr_tableau_vs_hive", "sunlr.cli.lr_hive_count", lambda *a: 99),
        ("four_way_oracle", "sunlr.hive.count_sun_hives", lambda *a, **k: 99),
        ("horn_equivalence", "sunlr.horn.in_cone", lambda *a, **k: None),
        ("level1_closed_form", "sunlr.generalized.level1_f", lambda *a: -1),
    ],
    ids=["lr", "four-way", "horn", "level1"],
)
def test_main_selftest_names_the_failing_suite(capsys, monkeypatch, suite, name, fake):
    monkeypatch.setattr(name, fake)
    code, out = run_cli(capsys, ["selftest"], stdin="", monkeypatch=monkeypatch)
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "oracle-disagreement"
    assert payload["message"].startswith(f"selftest {suite} mismatch at (")


def test_main_oracle_disagreement_exit_code(capsys, monkeypatch):
    # a cross-check that sees inconsistent oracles must exit 2, never pass silently
    import sunlr.hive

    monkeypatch.setattr(sunlr.hive, "count_sun_hives", lambda *a, **k: 99)
    code, out = run_cli(
        capsys,
        ["f", "--cross-check"],
        stdin=doc(kind="f_sun", n=1, m=4, lambdas=[[1]] * 4),
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert json.loads(out)["error"] == "oracle-disagreement"


@pytest.mark.parametrize(
    "argv, payload, module, name, fake",
    [
        (["lr"], doc(kind="lr", n=2, lambdas=[[1], [1], [2]]), "sunlr.cli", "lr_hive_count", lambda *a: 99),
        (["positivity"], doc(kind="positivity", n=1, lambdas=[[1]] * 4), "sunlr.generalized", "f_sun", lambda *a, **k: 0),
        (["cone"], doc(kind="cone", n=1, lambdas=[[1]] * 4), "sunlr.horn", "in_cone", lambda *a, **k: a[3] == "one"),
    ],
    ids=["lr", "positivity", "cone"],
)
def test_main_cross_check_disagreement_exits_2(capsys, monkeypatch, argv, payload, module, name, fake):
    code, out = run_cli(capsys, argv + ["--cross-check"], stdin=payload, monkeypatch=monkeypatch)
    assert code == 0
    monkeypatch.setattr(f"{module}.{name}", fake)
    code, out = run_cli(capsys, argv + ["--cross-check"], stdin=payload, monkeypatch=monkeypatch)
    assert code == 2
    assert json.loads(out)["error"] == "oracle-disagreement"


def test_main_unreadable_file(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out = run_cli(capsys, ["f", "--file", str(missing)])
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "invalid-input"
    assert report["message"].startswith(f"cannot read {missing}: ")


def test_main_undecodable_file(capsys, tmp_path):
    problem = tmp_path / "bad.json"
    problem.write_bytes(b"\xff\xfe{")
    code, out = run_cli(capsys, ["f", "--file", str(problem)])
    # a locale that decodes every byte reads it, and the JSON is malformed
    assert (code, json.loads(out)["error"]) == (1, "invalid-input")


def test_main_undecodable_stdin(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{"), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out = run_cli(capsys, ["f"])
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "invalid-input"
    assert report["message"].startswith("cannot read standard input: 'utf-8' codec can't decode byte 0xff")


def test_main_deeply_nested_document(capsys, monkeypatch):
    text = '{"kind": "f_sun", "n": 1, "lambdas": ' + "[" * 100_000 + "]" * 100_000 + "}"
    code, out = run_cli(capsys, ["f"], stdin=text, monkeypatch=monkeypatch)
    assert (code, json.loads(out)) == (1, {"error": "invalid-input", "message": "JSON document nested too deeply"})


# one subcommand per list of flags it reads, every flag, forms only the
# standard library parser reads (a prefix, =, --, -h), and values: an int, a
# negative, no int, a choice, no choice, empty, with a space, signed
ARGV_TOKENS = [
    *{flags: sub for sub, (_, _, flags) in SUBCOMMANDS.items()}.values(),
    *cli.FLAGS,
    "--b", "--budget=5", "--", "-h",
    "5", "-1", "x", "one", "bogus", "", " 7", "+3",
]


def argvs(max_tokens):
    return [list(argv) for k in range(max_tokens + 1) for argv in itertools.product(ARGV_TOKENS, repeat=k)]


def test_fast_path_reads_argv_as_argparse_does(monkeypatch):
    class Fallback(Exception):
        pass

    def fallback(argv):
        raise Fallback

    stdlib_parse = cli._stdlib_parse
    monkeypatch.setattr(cli, "_stdlib_parse", fallback)
    fast = 0
    for argv in argvs(4):
        try:
            args = cli._parse_argv(argv)
        except Fallback:
            continue
        fast += 1
        assert vars(args) == vars(stdlib_parse(argv)), argv
    assert fast > len(ARGV_TOKENS), fast


def test_every_short_argv_parses_or_refuses(capsys):
    for argv in argvs(2):
        try:
            cli._parse_argv(argv)
        except InvalidInputError:
            pass
        except SystemExit as exc:  # -h printed the help
            assert exc.code == 0, argv
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, payload, error, message",
    [
        (
            ["factorize"],
            doc(kind="factorize", n=1, lambdas=[[2], [1], [2], [1]]),
            "invalid-input",
            "no tight nonempty inequality found for this tuple",
        ),
        (
            ["positivity"],
            doc(kind="positivity", n=1, lambdas=[[1]] * 5),
            "unsupported-shape",
            "need an even number m >= 4 of flags, got m=5",
        ),
        (
            ["positivity"],
            doc(kind="positivity", n=1, lambdas=[[1, 1], [1], [1], [1]]),
            "invalid-input",
            "lambda(1) = [1, 1] has more than n=1 parts",
        ),
        (["f"], "[1, 2]", "invalid-input", "problem document must be a JSON object"),
        (
            ["lr"],
            doc(kind="lr", n=2, lambdas=[[1], [1]]),
            "invalid-input",
            "kind 'lr' needs exactly three sequences [lambda, mu, nu]",
        ),
        (["f"], doc(kind="f_sun", n=1, m=6, lambdas=[[1]] * 4), "invalid-input", "m=6 but 4 sequences given"),
    ],
    ids=[
        "factorize-no-tight-inequality",
        "positivity-odd-m",
        "positivity-too-many-parts",
        "not-an-object",
        "lr-two-sequences",
        "m-not-the-sequence-count",
    ],
)
def test_main_input_errors(capsys, monkeypatch, argv, payload, error, message):
    code, out = run_cli(capsys, argv, stdin=payload, monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(out) == {"error": error, "message": message}


ONES = [[1]] * 4

# case -> (argv, document, the library call its handler makes, as (function, args));
# the CLI checks the document only, so it prints the library's refusal as it is
LIBRARY_REFUSALS = {
    "lr-rank": (["lr"], {"kind": "lr", "n": 0, "lambdas": [[1], [1], [2]]}, (lr_coefficient, ([1], [1], [2], 0))),
    "lr-float": (["lr"], {"kind": "lr", "n": 2, "lambdas": [[1], [1.5], [2]]}, (lr_coefficient, ([1], [1.5], [2], 2))),
    "f-odd-m": (["f"], {"kind": "f_sun", "n": 1, "lambdas": [[1]] * 5}, (generalized.f_sun, ([[1]] * 5, 1))),
    "f-bool": (
        ["f", "--cross-check"],
        {"kind": "f_sun", "n": 1, "lambdas": [[True]] * 4},
        (generalized.f_sun, ([[True]] * 4, 1)),
    ),
    "f1-m": (["f1"], {"kind": "f1", "n": 1, "lambdas": [[1]] * 3}, (generalized.f1, ([[1]] * 3, 1))),
    "f2-m": (["f2"], {"kind": "f2", "n": 1, "lambdas": [[1]] * 2}, (generalized.f2, ([[1]] * 2, 1))),
    "positivity-rank": (["positivity"], {"kind": "positivity", "n": -1, "lambdas": ONES}, (hive.positivity, (ONES, -1))),
    "positivity-default-budget": (
        ["positivity"],
        {"kind": "positivity", "n": 40, "lambdas": ONES},
        (hive.positivity, (ONES, 40)),
    ),
    "cone-string": (
        ["cone"],
        {"kind": "cone", "n": 1, "lambdas": [["x"], [1], [1], [1]]},
        (horn.in_cone, ([["x"], [1], [1], [1]], 1, 4)),
    ),
    "cone-variant": (
        ["cone"],
        {"kind": "cone", "n": 1, "variant": "bogus", "lambdas": [[1], [], [], []]},
        (horn.in_cone, ([[1], [], [], []], 1, 4, "bogus")),
    ),
    "horn-gen-m": (["horn-gen"], {"kind": "horn_gen", "n": 1, "m": 2}, (horn.generate_T, (1, 2))),
    "horn-gen-rank": (["horn-gen"], {"kind": "horn_gen", "n": 0, "m": 4}, (horn.generate_T, (0, 4))),
    "stretch-of": (
        ["stretch"],
        {"kind": "stretch", "n": 1, "N_max": 2, "of": "bogus", "lambdas": ONES},
        (generalized.ChainProblem, ("bogus", 1, ONES)),
    ),
    "stretch-float": (
        ["stretch"],
        {"kind": "stretch", "n": 1, "N_max": 2, "lambdas": [[1.5]] * 4},
        (generalized.ChainProblem, ("f_sun", 1, [[1.5]] * 4)),
    ),
    "factorize-odd-m": (
        ["factorize"],
        {"kind": "factorize", "n": 1, "lambdas": [[1]] * 5},
        (horn.find_tight_tuples, ([[1]] * 5, 1)),
    ),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_REFUSALS))
def test_main_prints_the_library_refusal(capsys, monkeypatch, case):
    argv, document, (function, args) = LIBRARY_REFUSALS[case]
    with pytest.raises(SunlrError) as exc:
        function(*args)
    code, out = run_cli(capsys, argv, stdin=json.dumps(document), monkeypatch=monkeypatch)
    assert code == exc.value.exit_code
    assert json.loads(out) == {"error": exc.value.code, "message": str(exc.value)}


def test_main_facets26_closure(capsys, monkeypatch):
    code, out = run_cli(capsys, ["facets26"], stdin="", monkeypatch=monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert len(report["facets"]) == 14
    assert report["closure_count"] == 63


def test_main_plain_rendering(capsys, monkeypatch):
    code, out = run_cli(
        capsys,
        ["f", "--plain"],
        stdin=doc(kind="f_sun", n=1, m=4, lambdas=[[1]] * 4),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert "value: 2" in out


def test_selftest_does_not_wait_for_open_stdin():
    # a no-input subcommand must not read standard input: with an open,
    # silent pipe on stdin it would wait forever for end of file
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "sunlr", "selftest"]
    pipes = dict(stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with subprocess.Popen(argv, env=env, text=True, **pipes) as proc:
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            pytest.fail("selftest waited for standard input")
        report = json.loads(proc.stdout.read())
    assert code == 0
    assert report["passed"] is True


def test_main_replays_the_golden_corpus(capsys, monkeypatch):
    # every request of tests/data/cli_golden.json, valid and refused: the
    # same exit code and byte for byte the same standard output
    entries = json.loads((Path(__file__).resolve().parent / "data" / "cli_golden.json").read_text())
    assert len(entries) == 100
    for entry in entries:
        code, out = run_cli(capsys, list(entry["argv"]), stdin=entry["stdin"], monkeypatch=monkeypatch)
        assert (code, out) == (entry["exit"], entry["stdout"]), entry["argv"]


def run_child(argv, stdin, stdout):
    """Run ``python -m sunlr`` with ``argv`` in a fresh process; (exit code, standard error)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "sunlr", *argv]
    proc = subprocess.run(cmd, env=env, input=stdin, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)
    return proc.returncode, proc.stderr


def test_main_closed_pipe_on_stdout_exits_1():
    read, write = os.pipe()
    os.close(read)  # closed before the child starts: its first write fails
    try:
        code, err = run_child(["f"], doc(kind="f_sun", n=1, lambdas=ONES), write)
    finally:
        os.close(write)
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("sunlr: cannot write standard output: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("lambdas", [ONES, [[1]] * 5], ids=["report", "error-payload"])
def test_main_full_stdout_exits_1(lambdas):
    with open("/dev/full", "w") as full:
        code, err = run_child(["f"], doc(kind="f_sun", n=1, lambdas=lambdas), full)
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("sunlr: cannot write standard output: ")


# one valid document per subcommand, n <= 2 and entries <= 3; the fuzz below mutates them
VALID = {
    "lr": {"kind": "lr", "n": 2, "lambdas": [[1], [1], [2]]},
    "f": {"kind": "f_sun", "n": 2, "m": 4, "lambdas": [[2, 1], [1, 1], [1], [2]]},
    "f1": {"kind": "f1", "n": 2, "lambdas": [[1]] * 4},
    "f2": {"kind": "f2", "n": 2, "lambdas": [[1]] * 3},
    "positivity": {"kind": "positivity", "n": 2, "lambdas": [[2, 1], [1, 1], [1], [2]]},
    "cone": {"kind": "cone", "n": 2, "variant": "one", "lambdas": [["1/2", 0], [1], [1], ["1/2"]]},
    "horn-gen": {"kind": "horn_gen", "n": 2, "m": 4},
    "stretch": {"kind": "stretch", "n": 2, "N_max": 2, "of": "f1", "lambdas": [[1]] * 4},
    "facets26": {},
    "factorize": {
        "kind": "factorize",
        "n": 2,
        "lambdas": [[1], [1], [1], [1], [], []],
        "subsets": [[], [], [1], [1], [1], []],
    },
    "selftest": {},
}
FIELDS = ("kind", "n", "m", "lambdas", "N_max", "of", "variant", "subsets", "r_max")
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-1, 2)
    | st.floats(-3, 3)
    | st.sampled_from(["1/2", "x", "one", "f1", "f_sun"])
)
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=8)
FLAGS = st.one_of(
    st.just(["--cross-check"]),
    st.just(["--plain"]),
    st.integers(-1, 500).map(lambda b: ["--budget", str(b)]),
    st.sampled_from(["one", "nonzero", "bogus"]).map(lambda v: ["--variant", v]),
    st.sampled_from([["--json"], ["--nosuch"], ["-x"]]),
)
ERRORS = {1: {"invalid-input", "unsupported-shape", "not-on-wall"}, 2: {"oracle-disagreement"}, 3: {"budget-exceeded"}}


@st.composite
def requests(draw):
    sub = draw(st.sampled_from(sorted(SUBCOMMAND_KIND)))
    problem = json.loads(json.dumps(VALID[sub]))
    for key in draw(st.lists(st.sampled_from(FIELDS), max_size=3)):
        action = draw(st.sampled_from(["drop", "replace", "entry"]))
        if action == "drop":
            problem.pop(key, None)
        elif action == "replace" or not isinstance(problem.get(key), list) or not problem[key]:
            problem[key] = draw(VALUES)
        else:
            seq = problem[key]
            i = draw(st.integers(0, len(seq) - 1))
            if isinstance(seq[i], list) and seq[i] and draw(st.booleans()):
                seq, i = seq[i], draw(st.integers(0, len(seq[i]) - 1))
            seq[i] = draw(VALUES)
    argv = [sub] + [x for flag in draw(st.lists(FLAGS, max_size=3)) for x in flag]
    return argv, json.dumps(problem)


@settings(max_examples=300, deadline=None)
@given(requests())
def test_main_fuzz_maps_every_request_to_an_exit_code(request):
    argv, text = request
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, text)
    if code:
        assert json.loads(out.getvalue())["error"] in ERRORS[code], (argv, text, out.getvalue())


FLAG_ARGS = {"--cross-check": [], "--variant": ["nonzero"], "--budget": ["1000"]}


@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_main_takes_only_the_flags_the_subcommand_reads(capsys, monkeypatch, tmp_path, sub):
    reads = SUBCOMMANDS[sub][2]
    assert set(reads) <= set(FLAG_ARGS)
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(VALID[sub]))
    for extra in (["--plain"], ["--file", str(problem)]):
        code, _ = run_cli(capsys, [sub, *extra], stdin=json.dumps(VALID[sub]), monkeypatch=monkeypatch)
        assert code == 0, extra
    for flag, value in FLAG_ARGS.items():
        argv = [sub, flag, *value]
        code, out = run_cli(capsys, argv, stdin=json.dumps(VALID[sub]), monkeypatch=monkeypatch)
        if flag in reads:
            assert code == 0, argv
        else:
            assert code == 1, argv
            assert json.loads(out) == {
                "error": "invalid-input",
                "message": f"sunlr: unrecognized arguments: {' '.join([flag, *value])}",
            }
