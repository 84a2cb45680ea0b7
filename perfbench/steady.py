#!/usr/bin/env python3
"""Steadiness command for the repository benchmark.

Runs each workload of BENCHMARK.json k times, each in a fresh process
with its own seed, exactly as the benchmark command is run:

    <command> --workload <name> --seed <n> --seconds <run_seconds> --trace 0

and prints, for every end-to-end metric, the median, the quartiles
(statistics.quantiles(values, n=4)), the inter-quartile range and the
max/min spread as shares of the median, set against the metric's bound.
It also checks that BENCHMARK.json names exactly the workloads and
metrics the benchmark prints (`--list`, and the keys of every result),
and that the share of failed operations is the same in every run.

    python3 perfbench/steady.py --runs 10 --out results/out/set1.json
    python3 perfbench/steady.py --runs 10 --against results/out/set1.json
    python3 perfbench/steady.py --check-only

With --against, a second set is compared with an earlier one: for every
metric of every workload the new median may be worse than the old one by
at most the metric's bound, and the failed shares must be equal.

Exit status: 0 when every check holds and every spread is within its
bound, 1 otherwise, 2 on usage errors.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_benchmark(path):
    with open(path) as f:
        return json.load(f)


def run_command(bench, extra):
    """Run the benchmark command with `extra` arguments; return the
    parsed last line of standard output (or None) and the wall time."""
    t0 = time.monotonic()
    proc = subprocess.run(
        bench["command"] + extra, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    wall = time.monotonic() - t0
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return None, wall
    return json.loads(lines[-1]), wall


def check_names(bench):
    """BENCHMARK.json must name exactly what the benchmark prints."""
    listed, _ = run_command(bench, ["--list"])
    if listed is None:
        return ["`--list` failed"]
    problems = []
    if sorted(listed["workloads"]) != sorted(w["name"] for w in bench["workloads"]):
        problems.append(
            "workloads: benchmark prints %s, BENCHMARK.json names %s"
            % (listed["workloads"], [w["name"] for w in bench["workloads"]])
        )
    for key in ("end_to_end", "per_layer"):
        printed = sorted((m["name"], m["unit"]) for m in listed[key])
        named = sorted((m["name"], m["unit"]) for m in bench[key])
        if printed != named:
            problems.append(
                "%s: printed but not named %s; named but not printed %s"
                % (key, sorted(set(printed) - set(named)), sorted(set(named) - set(printed)))
            )
    return problems


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    rel = (lambda x: x / med) if med else (lambda x: float("inf"))
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": rel(q3 - q1),
        "range_share": rel(max(values) - min(values)),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--out", help="write the raw results here as JSON")
    ap.add_argument("--against", help="compare with a set written by --out")
    ap.add_argument("--check-only", action="store_true", help="only check names")
    args = ap.parse_args()

    bench = load_benchmark(args.benchmark)
    ok = True
    problems = check_names(bench)
    for p in problems:
        print("NAME MISMATCH: " + p)
        ok = False
    if args.check_only:
        print("names: " + ("ok" if ok else "MISMATCH"))
        return 0 if ok else 1

    metrics = bench["end_to_end"]
    expected_keys = sorted(m["name"] for m in metrics)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]

    results = {}
    for name in names:
        runs = []
        for i in range(args.runs):
            seed = args.seed_base + i
            res, wall = run_command(
                bench,
                ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            )
            if res is None:
                print("%s seed %d: FAILED to produce a result" % (name, seed))
                ok = False
                continue
            if sorted(res["metrics"]) != expected_keys:
                print("%s seed %d: printed metrics %s" % (name, seed, sorted(res["metrics"])))
                ok = False
            res["seed"] = seed
            res["wall_s"] = wall
            runs.append(res)
            print(
                "%s seed %d: %.1fs correct=%s attempted=%d failed=%d %s"
                % (
                    name,
                    seed,
                    wall,
                    res["correct"],
                    res["attempted"],
                    res["failed"],
                    " ".join("%s=%.6g" % (k, v["value"]) for k, v in sorted(res["metrics"].items())),
                ),
                flush=True,
            )
        results[name] = runs

    old = None
    if args.against:
        with open(args.against) as f:
            old = json.load(f)

    print()
    print("%-12s %-28s %12s %12s %12s %8s %8s %6s  %s" % ("workload", "metric", "median", "q1", "q3", "iqr", "range", "bound", "verdict"))
    for name, runs in results.items():
        if not runs:
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            print("%s: failed shares %s, correct %s" % (name, sorted(shares), [r["correct"] for r in runs]))
            ok = False
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
            if not values:
                continue
            s = spread(values)
            bound = m["bound"]
            if s["iqr_share"] <= bound / 3:
                verdict = "steady"
            elif s["iqr_share"] <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            if old and name in old:
                old_values = [r["metrics"][m["name"]]["value"] for r in old[name] if m["name"] in r["metrics"]]
                if old_values:
                    om = statistics.median(old_values)
                    worse = (s["median"] - om) / om if m["better"] == "lower" else (om - s["median"]) / om
                    verdict += "  vs old %+.2f%%" % (100 * worse)
                    if worse > bound:
                        verdict += " WORSE"
                        ok = False
            print(
                "%-12s %-28s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %6s  %s"
                % (
                    name,
                    m["name"],
                    s["median"],
                    s["q1"],
                    s["q3"],
                    100 * s["iqr_share"],
                    100 * s["range_share"],
                    "%g" % bound,
                    verdict,
                )
            )
        if old and name in old and old[name]:
            old_shares = {r["failed"] / r["attempted"] for r in old[name]}
            if old_shares != shares:
                print("%s: failed share %s vs old %s" % (name, sorted(shares), sorted(old_shares)))
                ok = False

    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    print("\nsteadiness: " + ("ok" if ok else "NOT OK"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
