"""Benchmark of the satiss CLI: one workload, one run.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing is built or installed.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it alternates traced and
untraced calls and reports the per-layer metrics, writing the spans to
``.perfbench_runs/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
give the machine, every metric with its unit and sample count, and each
failed check.

``python3 perfbench/run.py --write-reference`` remakes ``reference.json``
from the current source at the default seed.
"""
import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

#: BLAS threads, pinned before numpy loads; at most nproc
BLAS_THREADS = 1

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")


def _pin_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def machine():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _write_reference(harness, scratch):
    values = {}
    for name in ("certify", "figure1", "large_grid"):
        done = harness.call(ROOT, harness.WORKLOADS[name], harness.DEFAULT_SEED, scratch,
                            {"seed": harness.DEFAULT_SEED, "values": {}})
        if done.failures:
            raise SystemExit("%s failed: %s" % (name, done.failures))
        values[name] = done.keys
    with open(harness.REFERENCE_PATH, "w") as fh:
        json.dump({"seed": harness.DEFAULT_SEED, "machine": machine(),
                   "values": values}, fh, indent=2)
        fh.write("\n")


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "satiss", "cli.py")) or \
            not os.path.isdir(os.path.join(ROOT, "demos", "configs")):
        print("perfbench: no satiss source tree (src/satiss, demos/configs) at %s"
              % ROOT, file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import harness

    os.makedirs(RUNS_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=RUNS_DIR)
    try:
        if args.write_reference:
            _write_reference(harness, scratch)
            return 0
        if args.workload not in harness.WORKLOADS:
            print("perfbench: unknown workload %r; choose from %s"
                  % (args.workload, ", ".join(harness.WORKLOADS)), file=sys.stderr)
            return 2
        result = harness.run(ROOT, args.workload, args.seed, args.seconds,
                             bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch)
    if result.tracer is not None:
        result.tracer.write_jsonl(os.path.join(
            RUNS_DIR, "spans-%s-seed%d.jsonl" % (args.workload, args.seed)))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(result.metrics):
        raise RuntimeError("metrics %s differ from BENCHMARK.json"
                           % sorted(set(units) ^ set(result.metrics)))
    print("# machine %s" % json.dumps(machine()))
    for name, (value, samples) in result.metrics.items():
        print("# %s = %.6g %s (n=%d)" % (name, value, units[name], samples))
    print("# failure_rate = %.6g (n=%d)" % (result.failed / result.attempted,
                                            result.attempted))
    for failure in result.failures:
        print("# FAILED %s" % failure)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
