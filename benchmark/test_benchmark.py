"""Tests of the benchmark's own checkers.

    python3 -m pytest -q benchmark

The closed forms are tested against values worked out by hand; each
workload's check is shown to pass the program's real answers on a few cheap
queries and to reject the same answers with one of them corrupted.
"""

import itertools
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import Query  # noqa: E402


def test_n1_cycle_count_hand_values():
    # a1 + a2 = a2 + a3 = a3 + a4 = a4 + a1 = 1: a = (0,1,0,1) or (1,0,1,0)
    assert checks.n1_cycle_count([1, 1, 1, 1]) == 2
    assert checks.n1_cycle_count([2, 2, 2, 2]) == 3
    assert checks.n1_cycle_count([0, 0, 0, 0]) == 1
    assert checks.n1_cycle_count([2, 1, 1, 1]) == 0  # odd and even totals differ
    # balanced but a2 = 1 - a1 and a3 = 0 - a2 force a1 = 1, then a4 = 0, a5 = 1, a6 = -1
    assert checks.n1_cycle_count([1, 0, 0, 1, 0, 0]) == 0
    assert checks.n1_cycle_count([3, 1, 2, 4]) == 2  # a1 in {2, 3}


def test_level1_binomial_hand_values():
    assert checks.level1_value((1, 1, 1, 1), 1) == 2  # C(2, 1)
    assert checks.level1_value((1, 1, 1, 1), 2) == 3  # C(3, 2)
    assert checks.level1_value((2, 2, 2, 2), 3) == 10  # s = 2: C(5, 3)
    assert checks.level1_value((1, 0, 0, 1), 4) == 1  # s = 0
    assert checks.level1_value((2, 1, 1, 1), 1) == 0  # unbalanced
    assert checks.level1_value((0, 1, 0, 0, 1, 0), 1) == 0  # J_1 = 0 - 1 + 0 < 0


def test_level1_binomial_agrees_with_cycle_count_on_one_row_families():
    # jumps in {0, 1} make every (N^{j}) a one-row partition or empty
    for m in (4, 6):
        for jumps in itertools.product((0, 1), repeat=m):
            for N in (1, 2, 3):
                assert checks.level1_value(jumps, N) == checks.n1_cycle_count([N * j for j in jumps])


def test_pieri_hand_values():
    assert checks.pieri_value((1, 1), (1,), (2, 1), 2) == 1
    assert checks.pieri_value((1,), (2,), (2, 1), 2) == 1
    assert checks.pieri_value((1,), (2,), (1, 1, 1), 3) == 0  # vertical strip
    assert checks.pieri_value((2, 1), (2,), (3, 2), 2) == 1
    assert checks.pieri_value((2, 1), (2,), (2, 2, 1), 3) == 1  # boxes in columns 2 and 1
    assert checks.pieri_value((2, 1), (2,), (2, 1, 1, 1), 4) == 0  # two boxes in column 1
    assert checks.pieri_value((1,), (1,), (1, 1), 1) == 0  # more than n rows
    assert checks.pieri_value((1200,), (1200,), (2400,), 1) == 1
    assert checks.pieri_value((3,), (), (3,), 1) == 1


def test_rectangular_complement_hand_values():
    assert checks.rect_value((1,), (2, 1), 2, 2) == 1
    assert checks.rect_value((2, 1), (2, 1), 3, 2) == 1
    assert checks.rect_value((1,), (1, 1), 2, 2) == 0
    assert checks.rect_value((2, 2), (), 2, 2) == 1
    assert checks.lr_closed_form((2, 1), (2, 1), (3, 3), 2) == 1
    assert checks.lr_closed_form((2, 1), (2, 1), (3, 2, 1), 3) is None


def test_dihedral_images():
    images = checks.dihedral_images(("a", "b", "c", "d"))
    assert images[0] == ("a", "b", "c", "d")
    assert set(images) == {
        ("a", "b", "c", "d"), ("b", "c", "d", "a"), ("c", "d", "a", "b"), ("d", "a", "b", "c"),
        ("d", "c", "b", "a"), ("a", "d", "c", "b"), ("b", "a", "d", "c"), ("c", "b", "a", "d"),
    }
    assert len(set(checks.dihedral_images(tuple("abcdef")))) == 12


def test_parity_images_keep_odd_flags_odd():
    images = checks.parity_images(tuple(range(6)))
    assert len(set(images)) == 6
    for img in images:
        assert all(img[k] % 2 == k % 2 for k in range(6))


def _answers(queries):
    return [workloads.call(q) for q in queries]


def test_chain_check_rejects_corrupted_answer():
    qs = [
        Query("n1", "generalized", "f_sun", (((1,), (1,), (1,), (1,)), 1)),
        Query("level1", "generalized", "stretched_table", (workloads._level1_problem([1, 0, 1, 0], 2), 3)),
        Query("pieri", "lr", "lr_coefficient", ((2, 1), (2,), (3, 2), 2)),
        Query("rect", "lr", "lr_coefficient", ((1,), (2, 1), (2, 2), 2)),
        Query("pieri", "lr", "lr_coefficient", ((1200,), (1200,), (2400,), 1)),
    ]
    answers = []
    for q in qs:
        try:
            answers.append(workloads.call(q))
        except RecursionError as exc:
            answers.append(exc)
    assert checks.check_chain(qs, answers, 0) == []
    for k, wrong in ((0, answers[0] + 1), (1, [1, 1, 1]), (2, 0), (4, ValueError("x"))):
        bad = list(answers)
        bad[k] = wrong
        assert checks.check_chain(qs, bad, 0), k


def test_lp_check_rejects_corrupted_answer():
    qs = [
        Query("lp", "hive", "positivity", (((1,), (1,), (1,), (1,)), 1, 4)),
        Query("lp", "hive", "positivity", (((2,), (1,), (1,), (1,)), 1, 4)),
    ]
    answers = _answers(qs)
    assert answers == [True, False]
    assert checks.check_lp(qs, answers, 0) == []
    assert checks.check_lp(qs, [True, True], 0)


def test_horn_check_rejects_corrupted_answer():
    qs = [Query("facets", "horn", "minimal_facets", (1, 6))]
    for lams in (((1,), (1,), (1,), (1,), (1,), (1,)), ((1,), (0,), (0,), (1,), (0,), (0,))):
        qs.append(Query("cone", "horn", "in_cone", (lams, 1, 6), (("variant", "one"),)))
    answers = _answers(qs)
    assert answers[1:] == [True, False]
    assert checks.check_horn(qs, answers, 0) == []
    assert checks.check_horn(qs, [[], *answers[1:]], 0)  # no facets: too many members
    assert checks.check_horn(qs, [answers[0], True, True], 0)


def test_cli_check_rejects_corrupted_answer():
    root = os.path.dirname(HERE)
    docs = [
        (("lr", "--cross-check"), {"kind": "lr", "n": 2, "lambdas": [[2, 1], [2], [3, 2]]}),
        (("stretch",), {"kind": "stretch", "n": 2, "N_max": 2, "lambdas": [[1], [1], [1], [1]]}),
    ]
    qs = [Query("cli", "cli", argv[0], (argv, json.dumps(doc))) for argv, doc in docs]
    answers = workloads.run_cli_round(qs, root).answers
    assert checks.check_cli(qs, answers, 0) == []
    code, out, err = answers[1]
    rep = json.loads(out)
    rep["values"][1] += 1
    assert checks.check_cli(qs, [answers[0], (code, json.dumps(rep), err)], 0)
    assert checks.check_cli(qs, [answers[0], (1, out, err)], 0)


def test_local_slowdowns_use_ticks_inside_a_long_query_or_the_nearest():
    meter = speed.Meter()
    meter.at = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    meter.cpu = [speed.REF_TICK_S * f for f in (1, 1, 2, 2, 2, 4)]
    # inside [1.5, 4.5]: the ticks at 2, 3 and 4
    assert meter.local_slowdowns([1.5], [3.0], k=3) == [2.0]
    # a short query at 0.4: its two nearest ticks are those at 0 and 1
    assert meter.local_slowdowns([0.4], [0.0], k=2) == [1.0]
    # at 4.9: the ticks at 5, 4 and 3
    assert abs(meter.local_slowdowns([4.9], [0.0], k=3)[0] - 8 / 3) < 1e-12


def test_timer_ticks_fall_inside_a_long_query_and_are_taken_out():
    with speed.Meter() as meter:
        t0, ticked = time.thread_time(), meter.cpu_total
        start = meter.work_clock()
        while meter.work_clock() - start < 0.5:  # one query of 0.5 s of work
            pass
        work = time.thread_time() - t0 - (meter.cpu_total - ticked)
    assert len(meter.cpu) >= 2  # a tick every 0.15 s of CPU
    assert 0.5 <= work < 0.51
    assert all(start <= at <= start + 0.5 for at in meter.at)
