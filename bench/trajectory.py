#!/usr/bin/env python3
"""Committed performance trajectory: one line per PR in bench/trajectory.jsonl.

    python3 bench/trajectory.py 16        # measure this tree, append PR 16
    python3 bench/trajectory.py --check   # validate every committed line

Run from the repository root. Measuring builds and runs the repository
benchmark (perfbench/run.py) 3 times untraced and once traced per workload,
at BENCHMARK.json's run_seconds and the default seed and lane count. If
every run matches perfbench/reference.json, it appends one JSON line:

    {"pr", "commit", "lanes", "steal", "end_to_end", "layers"}

"commit" is `git describe --always --dirty` of the measured tree, "steal"
the largest host steal share of the line's runs, "end_to_end" each
workload's median of every end-to-end metric over the untraced runs, and
"layers" each workload's per-layer metrics from the traced run. Units are
BENCHMARK.json's. Lines recorded before this script existed hold the merge
pipeline's medians and have null lanes, steal and layers.

--check verifies that every line parses and that its workload and metric
names are exactly BENCHMARK.json's. It has no timing gate.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.jsonl")
UNTRACED_RUNS = 3
KEYS = ["pr", "commit", "lanes", "steal", "end_to_end", "layers"]

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench/ as checked out
import run  # noqa: E402  (perfbench's runner)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def read_lines():
    if not os.path.isfile(TRAJECTORY):
        return []
    with open(TRAJECTORY) as f:
        return [json.loads(text) for text in f if text.strip()]


def measure(pr, bench):
    run.build()
    reference = run.load_reference()
    e2e_names = [m["name"] for m in bench["end_to_end"]]
    lanes, steal, end_to_end, layers = [], [], {}, {}
    for workload in (w["name"] for w in bench["workloads"]):
        untraced = []
        for trace in [False] * UNTRACED_RUNS + [True]:
            result = run.run_binary(workload, run.DEFAULT_SEED,
                                    bench["run_seconds"], trace)
            failed, problems = run.judge(result, reference)
            if failed or problems:
                run.fail("%s: %d failed ops %s" % (workload, failed, problems))
            lanes.append(result["lanes"])
            steal.append(result["steal_frac"])
            if trace:
                layers[workload] = {
                    name: m["value"] for name, m in result["per_layer"].items()}
            else:
                untraced.append(result["end_to_end"])
        end_to_end[workload] = {
            name: statistics.median(r[name]["value"] for r in untraced)
            for name in e2e_names}
    commit = subprocess.check_output(
        ["git", "describe", "--always", "--dirty", "--abbrev=7"],
        cwd=ROOT, text=True).strip()
    return {"pr": pr, "commit": commit, "lanes": max(lanes),
            "steal": max(steal), "end_to_end": end_to_end, "layers": layers}


def check(bench):
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    problems = []
    with open(TRAJECTORY) as f:
        texts = [text for text in f if text.strip()]
    for n, text in enumerate(texts, 1):
        try:
            line = json.loads(text)
        except ValueError as error:
            problems.append("line %d does not parse: %s" % (n, error))
            continue
        if list(line) != KEYS:
            problems.append("line %d keys %s != %s" % (n, list(line), KEYS))
            continue
        groups = [("end_to_end", line["end_to_end"], e2e)]
        if line["layers"] is not None:
            groups.append(("layers", line["layers"], layers))
        for group, by_workload, names in groups:
            if set(by_workload) != workloads:
                problems.append("line %d %s workloads %s != %s"
                                % (n, group, sorted(by_workload),
                                   sorted(workloads)))
                continue
            for workload, metrics in by_workload.items():
                if set(metrics) != names:
                    problems.append("line %d %s.%s metrics differ from "
                                    "BENCHMARK.json: %s" % (
                                        n, group, workload,
                                        sorted(set(metrics) ^ names)))
    for problem in problems:
        print("FAIL  " + problem)
    print("%s  %d trajectory lines checked against BENCHMARK.json"
          % ("FAIL" if problems else "PASS", len(texts)))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("pr", type=int, nargs="?",
                        help="PR number of the measured tree")
    parser.add_argument("--check", action="store_true",
                        help="validate bench/trajectory.jsonl and exit")
    args = parser.parse_args()
    bench = load_benchmark()
    if args.check:
        return check(bench)
    if args.pr is None:
        parser.error("give a PR number, or --check")
    if any(line["pr"] == args.pr for line in read_lines()):
        run.fail("bench/trajectory.jsonl already has a line for PR %d"
                 % args.pr)
    line = measure(args.pr, bench)
    with open(TRAJECTORY, "a") as f:
        f.write(json.dumps(line) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
