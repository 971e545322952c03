"""Benchmark of sunlr: one workload per run, answers checked, metrics as JSON.

    python3 benchmark/run.py --workload chain --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The process imports ``sunlr`` from the
checkout's ``src``, builds the workload's queries from the seed, and then
runs whole rounds of them until ``--seconds`` have passed, each round with
every memo empty.  Times are CPU times (user + sys) unless named wall; the
program is single-threaded and never waits on I/O.  Each time is divided by
the slowdown of the machine, measured by ticks of a fixed computation during
the same round (``speed.py``), so it reads as the time on the reference
machine whatever the machine's speed at the moment.  After the timed rounds
it checks every answer and prints one JSON object as the last line.

With ``--trace 1`` it runs one round without spans and then the same round
with spans, and prints the per-layer metrics instead.
"""

import time

SETUP_START = time.process_time()  # set-up is timed from the first line of this file

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("chain", "lp", "horn", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on the path; fail when it is absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sunlr", "__init__.py")):
        raise SystemExit(f"benchmark: no sunlr package under {src}; run from a full checkout")
    sys.path.insert(0, src)
    sys.path.insert(1, HERE)
    import sunlr

    if not os.path.abspath(sunlr.__file__).startswith(src):
        raise SystemExit(f"benchmark: imported sunlr from {sunlr.__file__}, not {src}")


def same_answers(workload, a, b):
    """Equal answers; exceptions by type and message, cli by exit code and stdout."""
    if workload == "cli":
        return [x[:2] for x in a] == [y[:2] for y in b]

    def key(x):
        return (type(x), str(x)) if isinstance(x, BaseException) else x

    return [key(x) for x in a] == [key(y) for y in b]


def failed(workload, answers):
    if workload == "cli":
        return sum(1 for code, _, _ in answers if code != 0)
    return sum(1 for a in answers if isinstance(a, BaseException))


def run_untraced(workload, queries, seconds):
    import workloads

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if workload == "cli":
            rounds.append(workloads.run_cli_round(queries, ROOT))
        else:
            rounds.append(workloads.run_round(queries))
        if len(rounds) == 1:
            # later rounds reuse freed memory but can still raise the high
            # water mark a little; read it after a fixed amount of work
            rss = workloads.peak_rss_mb(children=workload == "cli")
    samples = [t / s for r in rounds for t, s in zip(r.query_cpu, r.query_slowdown)]
    metrics = {
        "cpu_s": (statistics.median(r.cpu_s / r.cpu_slowdown for r in rounds), "s"),
        "wall_s": (statistics.median(r.wall_s / r.wall_slowdown for r in rounds), "s"),
        "query_p50_ms": (1000 * statistics.median(samples), "ms"),
        "query_p95_ms": (1000 * statistics.quantiles(samples, n=20)[18], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return rounds, metrics


def import_cpu(repeats=5):
    """Median CPU of a fresh interpreter that only imports sunlr.cli, at the
    reference speed."""
    import workloads
    from speed import ChildMeter, children_cpu

    env = workloads.cli_env(ROOT)
    meter = ChildMeter()
    out = []
    for _ in range(repeats):
        t0 = children_cpu()
        subprocess.run([sys.executable, "-c", "import sunlr.cli"], env=env, cwd=ROOT, check=True)
        out.append(children_cpu() - t0)
        meter.tick()
    return statistics.median(out) / meter.cpu_slowdown()


def setup_slowdown(ticks=20):
    """The slowdown right after set-up, from a few ticks after a warm-up one."""
    from speed import Meter

    Meter().tick()
    meter = Meter()
    for _ in range(ticks):
        meter.tick()
    return meter.cpu_slowdown()


def run_traced(workload, queries):
    """A round without spans, then the same round with spans."""
    import workloads
    from sunlr import cli, generalized, hive, horn, linprog, lr, quiver
    from tracing import PER_LAYER, TRACE_TAG, Tracer

    PER_LAYER_UNITS = dict(PER_LAYER)

    tracer = Tracer()
    if workload == "cli":
        plain = workloads.run_cli_round(queries, ROOT)
        traced = workloads.run_cli_round(queries, ROOT, child=[os.path.join(HERE, "traced_cli.py")])
        for _, _, err in traced.answers:
            tail = err.rstrip().rsplit("\n", 1)[-1]
            if tail.startswith(TRACE_TAG):
                tracer.merge_json(json.loads(tail[len(TRACE_TAG):]))
    else:
        plain = workloads.run_round(queries)
        tracer.install({"lr": lr, "generalized": generalized, "hive": hive, "linprog": linprog,
                        "horn": horn, "quiver": quiver, "cli": cli})
        try:
            traced = workloads.run_round(queries, timer=False)
        finally:
            tracer.uninstall()
        tracer.read_tableau_cache(lr)
    # bring span times to the reference speed with the slowdown of the
    # untraced round just before (the traced round has no timer ticks,
    # which would fall inside spans)
    slow = plain.cpu_slowdown
    values = {name: v / slow if PER_LAYER_UNITS[name] == "s" else v
              for name, v in tracer.layer_metrics().items()}
    values["cli.import_cpu_s"] = import_cpu() if workload == "cli" else 0.0
    values["cli.request_cpu_s"] = statistics.median(plain.query_cpu) / slow if workload == "cli" else 0.0
    values["trace.overhead_s"] = (traced.cpu_s - plain.cpu_s) / slow
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    return [plain, traced], metrics, tracer


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import checks
    import workloads

    queries = workloads.QUERY_BUILDERS[args.workload](args.seed)
    setup_raw = time.process_time() - SETUP_START
    setup_slow = setup_slowdown()
    setup_s = setup_raw / setup_slow

    tracer = None
    if args.trace:
        rounds, metrics, tracer = run_traced(args.workload, queries)
    else:
        rounds, metrics = run_untraced(args.workload, queries, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
    problems = []
    if not all(same_answers(args.workload, rounds[0].answers, r.answers) for r in rounds[1:]):
        problems.append("the traced round gave other answers" if args.trace
                        else "rounds gave different answers")
    problems += checks.CHECKS[args.workload](queries, rounds[0].answers, args.seed)
    if args.trace and args.workload == "lp":
        m = {k: v for k, (v, _) in metrics.items()}
        decided = (m["linprog.elim_decided"] + m["linprog.fm_calls"] - m["linprog.fm_fallbacks"]
                   + m["linprog.simplex_calls"])
        if decided != len(queries):
            problems.append(f"the LP decided {decided} systems for {len(queries)} queries")

    result = {
        "correct": not problems,
        "attempted": len(queries) * len(rounds),
        "failed": sum(failed(args.workload, r.answers) for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump({**result, "rounds": len(rounds), "setup_raw_s": setup_raw, "setup_slowdown": setup_slow,
                   "raw": [{"cpu_s": r.cpu_s, "wall_s": r.wall_s, "cpu_slowdown": r.cpu_slowdown,
                            "wall_slowdown": r.wall_slowdown} for r in rounds],
                   "problems": problems[:50]}, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(OUT, f"trace-{stem}.json"), "w") as fh:
            json.dump(tracer.to_json(), fh, indent=1)
    for p in problems[:20]:
        print("problem:", p, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
