"""Run the benchmark on several seeds and report each metric's spread.

    python3 benchmark/spread.py --workload chain --seeds 1-10 --seconds 15

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median,
and the share of failed operations.  Runs go one at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", default="15")
    args = ap.parse_args(argv)

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=os.path.dirname(HERE))
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: all correct={all(r['correct'] for r in runs)} failed shares={sorted(shares)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:32s} median {med:.5g}  IQR/median {(q3 - q1) / med:.3f}")
        else:
            print(f"  {name:32s} median {med:.5g}")


if __name__ == "__main__":
    main()
