"""One input contract for every route that takes a tuple (lambdas, n).

Each route validates its sequences with ``partitions.check_sequences`` and
pads them to n only where it builds coordinates, after its budget check.  So
a bad rank or flag count is refused as an input error, and a huge n is
refused by a budget before any O(n) work starts.
"""

import json
import time

import pytest

from sunlr import cli, generalized, hive, horn, quiver
from sunlr.errors import InvalidInputError, UnsupportedShapeError

# every public function that takes (lambdas, n), called as route(lambdas, n, m)
# with m the flag count of its other arguments; the chain kinds, the hive
# count, the quiver weight and the tight tuples read m from the lambdas
ROUTES = {
    "f_sun": lambda lams, n, m: generalized.f_sun(lams, n),
    "f1": lambda lams, n, m: generalized.f1(lams, n),
    "f2": lambda lams, n, m: generalized.f2(lams, n),
    "count_sun_hives": lambda lams, n, m: hive.count_sun_hives(lams, n),
    "build_linear_system": lambda lams, n, m: hive.build_linear_system(lams, n, m),
    "positivity": lambda lams, n, m: hive.positivity(lams, n, m),
    "weight_sigma1": lambda lams, n, m: quiver.weight_sigma1(lams, n),
    "in_cone": lambda lams, n, m: horn.in_cone(lams, n, m),
    "factorization_check": lambda lams, n, m: horn.factorization_check(lams, ((),) * m, n),
    "find_tight_tuples": lambda lams, n, m: horn.find_tight_tuples(lams, n),
}
TAKES_M = ("build_linear_system", "positivity", "in_cone", "factorization_check")


# each rule has one raise site in ``partitions``, so every route refuses it
# with the same class and message
@pytest.mark.parametrize("name", sorted(ROUTES))
@pytest.mark.parametrize("lambdas", [((),) * 4, ((1,), (1,), (1,), (1,))], ids=["empty", "ones"])
def test_rank_zero_is_an_input_error(name, lambdas):
    with pytest.raises(InvalidInputError) as exc:
        ROUTES[name](lambdas, 0, 4)
    assert (type(exc.value), str(exc.value)) == (InvalidInputError, "rank n must be >= 1, got 0")


@pytest.mark.parametrize("name", TAKES_M)
@pytest.mark.parametrize("flags, m", [(4, 6), (6, 4)])
def test_flag_count_other_than_m_is_an_input_error(name, flags, m):
    with pytest.raises(InvalidInputError):
        ROUTES[name](((1,),) * flags, 1, m)


# f1 and f2 take an odd m
@pytest.mark.parametrize("name", sorted(set(ROUTES) - {"f1", "f2"}))
def test_odd_flag_count_is_an_unsupported_shape(name):
    with pytest.raises(UnsupportedShapeError) as exc:
        ROUTES[name](((1,),) * 5, 1, 5)
    assert str(exc.value) == "need an even number m >= 4 of flags, got m=5"


# rule -> (lambdas, n, message) of the InvalidInputError every route raises
INEXACT = "has a float or boolean entry; integers only, or 'p/q' in a cone"
ENTRY_RULES = {
    "float": (((1.5,), (1,), (1,), (1,)), 1, f"lambda(1) [1.5] {INEXACT}"),
    "bool": (((1,), (True,), (1,), (1,)), 1, f"lambda(2) [True] {INEXACT}"),
    "increasing": (((0, 1), (1,), (1,), (1,)), 2, "lambda(1) [0, 1] is not weakly decreasing"),
    "not-a-sequence": ((1, 1, 1, 1), 2, "lambda(1) 1 is not a sequence"),
}


@pytest.mark.parametrize("name", sorted(ROUTES))
@pytest.mark.parametrize("rule", sorted(ENTRY_RULES))
def test_every_route_refuses_an_entry_with_one_message(name, rule):
    lambdas, n, message = ENTRY_RULES[rule]
    with pytest.raises(InvalidInputError) as exc:
        ROUTES[name](lambdas, n, 4)
    assert (type(exc.value), str(exc.value)) == (InvalidInputError, message)


def test_in_cone_refuses_a_negative_tail_as_the_quiver_weight_does():
    for route in ("in_cone", "weight_sigma1"):
        with pytest.raises(InvalidInputError) as exc:
            ROUTES[route](((1, -1), (1,), (1,), (1,)), 3, 4)
        assert str(exc.value) == "lambda(1) [1, -1] has a negative tail but fewer than n=3 parts"


def test_find_tight_tuples_reads_every_flag():
    lams = ((1,), (1,), (1,), (1,), (), ())
    tight = horn.find_tight_tuples(lams, 1)
    assert tight and all(st.m == 6 for st in tight)
    assert all(st.slack([l or (0,) for l in lams]) == 0 for st in tight)


# at this rank a route that pads, enumerates or allocates to n never returns
HUGE = 10**12


def _refuse(*args, **kwargs):
    raise AssertionError("a route ran that the budget should have stopped")


def _run(capsys, monkeypatch, argv, payload, blocked):
    for module, attr in blocked:
        monkeypatch.setattr(module, attr, _refuse)
    start = time.perf_counter()
    code = cli.main([*argv, "--file", str(payload)])
    elapsed = time.perf_counter() - start
    return code, json.loads(capsys.readouterr().out), elapsed


ONES = [[1], [1], [1], [1]]

# (argv, document, routes that must not start)
HUGE_RANK_REQUESTS = {
    "positivity-budget": (
        ["positivity", "--budget", "1"],
        {"kind": "positivity", "lambdas": ONES},
        [(hive, "_boundary_vector"), (hive, "reduced_system")],
    ),
    "cone": (
        ["cone"],
        {"kind": "cone", "lambdas": ONES},
        [(horn, "_candidates"), (horn, "_index_rows")],
    ),
    "factorize": (
        ["factorize"],
        {"kind": "factorize", "lambdas": ONES},
        [(horn, "_candidates"), (horn, "pad")],
    ),
    "horn-gen": (["horn-gen"], {"kind": "horn_gen", "m": 4}, [(horn, "_candidates")]),
    "f-cross-check": (
        ["f", "--cross-check", "--budget", "1000"],
        {"kind": "f_sun", "lambdas": ONES},
        [
            (hive, "_boundary_vector"),
            (hive, "reduced_system"),
            (hive, "count_sun_hives"),
            (quiver, "weight_sigma1"),
            (quiver, "dim_si_sun"),
        ],
    ),
    "lr-cross-check": (
        ["lr", "--cross-check", "--budget", "1"],
        {"kind": "lr", "lambdas": [[1], [1], [2]]},
        [(cli, "lr_hive_count")],
    ),
}


@pytest.mark.parametrize("case", sorted(HUGE_RANK_REQUESTS))
def test_budget_refuses_a_huge_rank_before_any_o_n_work(capsys, monkeypatch, tmp_path, case):
    argv, document, blocked = HUGE_RANK_REQUESTS[case]
    payload = tmp_path / "problem.json"
    payload.write_text(json.dumps({**document, "n": HUGE}))
    code, out, elapsed = _run(capsys, monkeypatch, argv, payload, blocked)
    assert (code, out["error"]) == (3, "budget-exceeded"), out
    assert elapsed < 1.0


def test_lr_at_a_huge_rank_pads_nothing(capsys, monkeypatch, tmp_path):
    payload = tmp_path / "problem.json"
    payload.write_text(json.dumps({"kind": "lr", "n": HUGE, "lambdas": [[1], [1], [2]]}))
    code, out, elapsed = _run(capsys, monkeypatch, ["lr"], payload, [(cli, "lr_hive_count")])
    assert (code, out["value"]) == (0, 1)
    assert elapsed < 1.0


@pytest.mark.parametrize("subsets", [None, [[1], [1], [1], [1]]], ids=["found", "given"])
@pytest.mark.parametrize(
    "lambdas", [[[1, -1], [1], [1], [1]], [[1, 1, 1], [1], [1], [1]]], ids=["negative", "too-long"]
)
def test_factorize_refuses_a_tuple_as_positivity_does(capsys, tmp_path, lambdas, subsets):
    outputs = []
    for argv, kind in ((["positivity"], "positivity"), (["factorize"], "factorize")):
        payload = tmp_path / f"{kind}.json"
        document = {"kind": kind, "n": 2, "lambdas": lambdas}
        payload.write_text(json.dumps(document if subsets is None else {**document, "subsets": subsets}))
        assert cli.main([*argv, "--file", str(payload)]) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
