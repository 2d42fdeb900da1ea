#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Checks three things and exits non-zero if
any fails:
  1. the metric names and units each workload prints (untraced and traced)
     are exactly those BENCHMARK.json lists;
  2. a shortened size of each workload gives equal reference digests at
     1 lane and at min(4, nproc) lanes;
  3. a held-out seed, never used while the benchmark was written, runs
     clean at full size (fail_ratio 0, no invariant errors).
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

HELD_OUT_SEED = 90210


def expected_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def check(ok, what, failures):
    print("%s  %s" % ("PASS" if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def main():
    run.build()
    reference = run.load_reference()
    e2e, layers = expected_metrics()
    failures = []

    for w in run.WORKLOADS:
        for trace, expected in ((False, e2e), (True, layers)):
            result = run.run_binary(w, 7, 0.5, trace, small=True, setups=1)
            failed, problems = run.judge(result, reference)
            line = run.final_line([(result, failed, problems)], False)
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            check(got == expected,
                  "%s %s metric names and units match BENCHMARK.json"
                  % (w, "per-layer" if trace else "end-to-end"), failures)

    wide = run.lanes_default()
    for w in run.WORKLOADS:
        serial = run.run_binary(w, 7, 0.5, False, lanes=1, small=True, setups=1)
        parallel = run.run_binary(w, 7, 0.5, False, lanes=wide, small=True,
                                  setups=1)
        check(serial["check"] == parallel["check"],
              "%s shortened digests equal at 1 and %d lanes: %s"
              % (w, wide, serial["check"]), failures)

    for w in run.WORKLOADS:
        result = run.run_binary(w, HELD_OUT_SEED, 2.0, False, setups=1)
        failed, problems = run.judge(result, reference)
        check(failed == 0 and not problems and result["attempted"] > 0,
              "%s held-out seed %d runs clean (%d ops, %d failed) %s"
              % (w, HELD_OUT_SEED, result["attempted"], failed, problems),
              failures)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
