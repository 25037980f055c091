"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/suite.py --seeds 0,1,2,3,4 [--workloads certify,figure1]
                               [--seconds 15] [--out perfbench/baseline.json]

For each workload, one untraced run per seed and one traced run at the
first seed, each a separate ``run.py`` process, one after another.  Prints
every end-to-end and per-layer metric by name with its unit, median,
quartiles, spread (quartile distance over median) against the bound in
BENCHMARK.json, and sample count, plus the failure rate.  The exit code is
1 if any check failed or a spread exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit("run.py %s seed %d failed:\n%s" % (workload, seed, done.stderr))
    lines = done.stdout.splitlines()
    machine = json.loads(next(l for l in lines if l.startswith("# machine "))[10:])
    return json.loads(lines[-1]), machine


def _spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0,1,2,3,4")
    parser.add_argument("--workloads")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",") if args.workloads \
        else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    record = {"seconds": seconds, "seeds": seeds, "machine": None, "workloads": {}}
    ok = True
    print("%-12s %-38s %-6s %12s %12s %12s %7s %6s %3s"
          % ("workload", "metric", "unit", "median", "q1", "q3", "spread", "bound", "n"))
    for workload in workloads:
        runs = []
        for seed in seeds:
            result, record["machine"] = _run(workload, seed, seconds, 0)
            runs.append(result)
        result, _ = _run(workload, seeds[0], seconds, 1)
        runs.append(result)
        summary = {}
        for name, m in declared.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if not values:
                continue
            median, q1, q3, spread = _spread(values)
            bound = m.get("bound")
            if bound is not None and spread > bound:
                ok = False
            summary[name] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                             "spread": spread, "n": len(values)}
            print("%-12s %-38s %-6s %12.6g %12.6g %12.6g %7.4f %6s %3d"
                  % (workload, name, m["unit"], median, q1, q3, spread,
                     "-" if bound is None else bound, len(values)))
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok = ok and failed == 0
        summary["failure_rate"] = {"unit": "ratio", "value": failed / attempted,
                                   "n": attempted}
        print("%-12s %-38s %-6s %12.6g %38s %3d"
              % (workload, "failure_rate", "ratio", failed / attempted, "", attempted))
        record["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
