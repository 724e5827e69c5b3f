"""Run two sets of ten benchmark runs and compare them against BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/stability.py --workload all --first-seed 1

Each run is the benchmark command of BENCHMARK.json with its own seed
(``--first-seed`` onwards, never reused across sets).  For every workload
and end-to-end metric this prints the median and the spread of each set,
the spread being the distance between the first and third quartiles as a
share of the median.  A check fails when:

* a spread exceeds the metric's bound;
* the two sets' medians differ, in either direction, by more than the
  bound, as a share of the first set's median;
* a run is not correct, or the share of failed operations differs
  between runs.

The exit status is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS, RUNS = 2, 10


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    problems, summary = [], {}
    seed = args.first_seed
    for wl in workloads:
        sets = []
        for _ in range(SETS):
            runs = []
            for _ in range(RUNS):
                res = run_once(bench, wl, seed)
                print(f"{wl} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
                runs.append(res)
                seed += 1
            sets.append(runs)
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs}
        if len(shares) != 1:
            problems.append(f"{wl}: failed shares differ: {sorted(map(str, shares))}")
        if not all(r["correct"] for runs in sets for r in runs):
            problems.append(f"{wl}: a run was not correct")
        summary[wl] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            spreads = [spread(first), spread(second)]
            medians = [statistics.median(first), statistics.median(second)]
            change = medians[1] / medians[0] - 1
            summary[wl][name] = {"medians": medians, "spreads": spreads,
                                 "change": change, "bound": bound}
            print(f"  {name:14s} bound {bound:<5} " + "  ".join(
                f"median {m:.6g} spread {s:.4f}" for m, s in zip(medians, spreads))
                + f"  change {change:+.4f}")
            problems += [f"{wl}: {name} spread {s:.4f} above bound {bound}"
                         for s in spreads if s > bound]
            if abs(change) > bound:
                problems.append(f"{wl}: {name} medians {medians[0]:.6g} and "
                                f"{medians[1]:.6g} differ by more than {bound}")
    print(json.dumps({"summary": summary, "problems": problems}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
