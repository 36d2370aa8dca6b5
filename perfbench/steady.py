#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of benchmark runs on the same code.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workloads a,b]

Run from the repository root. For run i, set A (seed i + 1) and set B
(seed i + 101) each run every workload once, so slow drifts of the host
land on both sets alike. For every end-to-end metric
it prints each set's median, first and third quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and
the set-to-set change of the median, and marks each against the bound
in BENCHMARK.json: "ok" below a third of the bound, "near" below the
bound, "OVER" beyond it (setup_s's spread is not held to its bound).
Raw results go to <build dir>/steady.json. Exits non-zero when a run
fails or any metric is OVER.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write(result.stdout + result.stderr)
        raise SystemExit("steady: %s seed %d failed (exit %d)"
                         % (workload, seed, result.returncode))
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    out_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"),
        "perfbench")
    raw = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for name, seed in (("A", i + 1), ("B", i + 101)):
            for w in workloads:
                result = run_once(w, seed, args.seconds)
                raw[w][name].append(result)
                print("# %s set %s seed %d: attempted %d failed %d"
                      % (w, name, seed, result["attempted"], result["failed"]),
                      flush=True)
                with open(os.path.join(out_dir, "steady.json"), "w") as f:
                    json.dump(raw, f, indent=1)

    worst = "ok"
    for w in workloads:
        print("\n%s (%d runs per set, %g s each)" % (w, args.runs, args.seconds))
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in raw[w].values()]
        print("  failed share, set A and set B: %.6f, %.6f" % tuple(shares))
        if shares[0] != shares[1]:
            worst = "OVER"
        print("  %-22s %-34s %-34s %8s %5s %s" % (
            "metric", "set A median [q1, q3] spread", "set B median [q1, q3] spread",
            "change", "bound", "mark"))
        for m in spec["end_to_end"]:
            a, b = (summary([r["metrics"][m["name"]]["value"] for r in runs])
                    for runs in raw[w].values())
            change = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            worse = change if m["better"] == "lower" else -change
            bound = m["bound"]
            spreads = [a["spread"], b["spread"]] if m["name"] != "setup_s" else []
            level = max(spreads + [worse])
            mark = "ok" if level < bound / 3 else ("near" if level <= bound else "OVER")
            if mark == "OVER" or (mark == "near" and worst == "ok"):
                worst = mark
            cells = ["%.4g [%.4g, %.4g] %.3f" % (x["median"], x["q1"], x["q3"], x["spread"])
                     for x in (a, b)]
            print("  %-22s %-34s %-34s %+7.3f %5.2f %s" % (
                m["name"], cells[0], cells[1], change, bound, mark))
    print("\nsteady: worst mark %s" % worst)
    return 1 if worst == "OVER" else 0


if __name__ == "__main__":
    sys.exit(main())
