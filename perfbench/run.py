#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from source, runs one workload
as a closed loop and checks its outputs.

    python3 perfbench/run.py --workload attack_window --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                # every workload, default settings

Run it from the repository root. The build lands in .bench_build/ there.
The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1) of BENCHMARK.json. Lines
above it are the human-readable report. A run whose reference digests
differ from perfbench/reference.json counts every op as failed and exits
non-zero; runs are never retried.

See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "cleaks_perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("attack_window", "coresidence_hunt", "fleet_churn")
DEFAULT_SEED = 1
BUILD_TYPE = "RelWithDebInfo"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def lanes_default():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    """Configure once, then build incrementally; output goes to a log."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "cleaks_perfbench", "-j", str(lanes_default())])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=env) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def clean_env():
    """The simulator reads CLEAKS_* variables (lane count, sparse mode,
    tracing); the benchmark pins lanes itself and runs with none set."""
    return {k: v for k, v in os.environ.items() if not k.startswith("CLEAKS_")}


def run_binary(workload, seed, seconds, trace, lanes=None, small=False,
               setups=None):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0"]
    if lanes:
        cmd += ["--lanes", str(lanes)]
    if small:
        cmd.append("--small")
    if setups:
        cmd += ["--setups", str(setups)]
    if trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, "%s-seed%d.csv" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=clean_env(),
                          cwd=ROOT, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def load_reference():
    if not os.path.isfile(REFERENCE):
        return {}
    with open(REFERENCE) as f:
        return json.load(f)


def judge(result, reference):
    """(failed ops, list of problems) for one binary result."""
    problems = list(result["invariant_errors"])
    expected = reference.get(result["workload"])
    if not result["small"]:
        if expected is None:
            problems.append("no reference digests recorded")
        else:
            got = result["check"]
            for key in sorted(set(expected) | set(got)):
                if got.get(key) != expected.get(key):
                    problems.append("%s %s != reference %s"
                                    % (key, got.get(key), expected.get(key)))
    failed = result["failed"]
    if problems:
        failed = result["attempted"]
    return failed, problems


def report(result, failed, problems):
    """Human-readable lines (everything above the final JSON line)."""
    w = result["workload"]
    print("== %s  seed %d  %s run ==" % (w, result["seed"],
                                         "traced" if result["trace"] else "untraced"))
    print("lanes %d  nproc %d  cycle source %s  build %s  op samples %d  "
          "setups %d  measured %.3f s (process CPU %.3f s, host steal %.2f%%)"
          % (result["lanes"], result["nproc"], result["cycle_source"],
             result["build_type"], result["samples"], result["setups"],
             result["wall_s"], result["cpu_s"], 100.0 * result["steal_frac"]))
    if not result["trace"]:
        for name, m in result["end_to_end"].items():
            print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
        # Printed with every run but not in BENCHMARK.json; see README.md.
        attempted = max(result["attempted"], 1)
        print("  %-34s %14.6g %s" % ("op_p99_us", result["op_p99_us"], "us"))
        print("  %-34s %14.6g %s" % ("fail_ratio", failed / attempted, "ratio"))
    else:
        for name, m in result["per_layer"].items():
            print("  %-34s %14.6g %-10s %s" % (name, m["value"], m["unit"], m["note"]))
    for key, value in result["measured"].items():
        print("  measured %-25s %s" % (key, value))
    for key, value in result["check"].items():
        print("  check %-28s %s" % (key, value))
    for problem in problems:
        print("  FAILED: " + problem)


def final_line(results_and_judgements, prefix_names):
    correct = True
    attempted = 0
    failed_total = 0
    metrics = {}
    for result, failed, problems in results_and_judgements:
        correct = correct and not problems and failed == 0
        attempted += result["attempted"]
        failed_total += failed
        block = result["per_layer"] if result["trace"] else result["end_to_end"]
        for name, m in block.items():
            key = result["workload"] + "." + name if prefix_names else name
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed_total, "metrics": metrics}


def record_reference():
    reference = {}
    for w in WORKLOADS:
        result = run_binary(w, DEFAULT_SEED, 1.0, False, setups=1)
        if result["invariant_errors"]:
            fail("%s: %s" % (w, result["invariant_errors"]))
        reference[w] = result["check"]
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(reference, indent=2, sort_keys=True))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite perfbench/reference.json from this tree")
    args = parser.parse_args()

    build()
    if args.record_reference:
        record_reference()
        return 0

    reference = load_reference()
    judged = []
    for w in ([args.workload] if args.workload else WORKLOADS):
        result = run_binary(w, args.seed, args.seconds, bool(args.trace))
        failed, problems = judge(result, reference)
        report(result, failed, problems)
        judged.append((result, failed, problems))
    line = final_line(judged, prefix_names=args.workload is None)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
