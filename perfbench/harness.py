"""Workloads, timed calls of ``satiss.cli.main`` and their correctness checks.

The benchmark is a closed loop: one client in one process calls
``satiss.cli.main(argv)`` in-process, and starts the next call only after
the previous one returned.  Every call gets a fresh output root, removed
afterwards, so no call reads another call's artifacts.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import tempfile
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from satiss import cli
from satiss.saturation import hilbert_norm_map, pointwise_linf_map

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: seed of the shipped demo configs; the reference file is made with it
DEFAULT_SEED = 0
REFERENCE_RTOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str                   # satiss CLI verb
    base_config: str = None     # file under demos/configs, None for figure1
    overrides: dict = field(default_factory=dict)
    seed_sensitive: bool = True


WORKLOADS = {
    w.name: w for w in (
        # T = 3 instead of 9: five calls of ~4 s fit a run, so the median
        # over calls filters the host's seconds-long slow phases; the
        # per-step loop that dominates the call is the same
        Workload("certify", "certify", "certify.cfg", {"time.T": "3.0"}),
        Workload("figure1", "figure1", seed_sensitive=False),
        Workload("axiom_sweep", "run", "axiom_sweep.cfg"),
        Workload("large_grid", "run", "figure1.cfg", {
            "domain.n_interior": "2047", "time.T": "0.5",
            "initial.family": "smooth_random", "output.states": "false",
            "output_dir": "out_large_grid"}),
    )
}

FIGURE1_OUTDIR = "out_figure1"


def write_config(root, workload, seed, directory, overrides=None):
    """Config of ``workload`` for ``seed``: the demo config with the
    workload's overrides and ``rng_seed`` replaced.  Returns its path."""
    values = {}
    with open(os.path.join(root, "demos", "configs", workload.base_config)) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, value = (part.strip() for part in line.split("=", 1))
                values[key] = value
    values.update(workload.overrides)
    values.update(overrides or {})
    values["rng_seed"] = str(seed)
    path = os.path.join(directory, workload.name + ".cfg")
    with open(path, "w") as fh:
        fh.writelines("%s = %s\n" % item for item in values.items())
    return path


def _n_steps(T, dt):
    return max(1, math.ceil(T / dt - 1e-9))


def member_steps(workload, config):
    """Integrated member-steps of one call, counted from its inputs."""
    if workload.verb == "figure1":
        return 2 * _n_steps(cli.FIGURE1_T, cli.FIGURE1_DT)
    if workload.verb == "certify":
        members = config["certificate.members"]
    else:
        members = (1 + 2 * config["analysis.gap"]
                   + len(config["analysis.semiglobal_r"])
                   * config["analysis.semiglobal_samples"]
                   + config["certificate.members"] * config["analysis.certificate"])
    return members * _n_steps(config["time.T"], config["time.dt"])


# ---------------------------------------------------------------- checks

def _kv(path):
    with open(path) as fh:
        return dict(line.split("=", 1) for line in fh.read().splitlines() if "=" in line)


def _csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(x) for x in line.split(",")] for line in fh]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _last_row(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        last = None
        for last in fh:
            pass
    return dict(zip(header, (float(x) for x in last.split(","))))


def _check_certify(outdir, config):
    cert = _kv(os.path.join(outdir, "certificate.txt"))
    failures = []
    if cert["valid"] != "true":
        failures.append("certificate not valid")
    if int(cert["ensemble_size"]) != config["certificate.members"]:
        failures.append("ensemble_size=%s" % cert["ensemble_size"])
    keys = {k: float(cert[k]) for k in ("K", "mu", "rho_gain")}
    return failures, keys


def _check_figure1(outdir, config):
    last = _last_row(os.path.join(outdir, "figure1_norms.csv"))
    return [], {"norm_disturbed": last["norm_disturbed"],
                "norm_linear": last["norm_linear"]}


def _check_axiom_sweep(outdir, config):
    """Axiom report judged as ``satiss axioms`` judges it, V1 decrease with
    no violation, and the gap under its conservative bound at every row."""
    kind, level = config["saturation.kind"], config["saturation.level"]
    sigma = hilbert_norm_map(level) if kind == "hilbert_norm" \
        else pointwise_linf_map(level, config["domain.L"])
    report = _kv(os.path.join(outdir, "axioms_%s.txt" % kind))
    failures = []
    if int(report["bound_violations"]) or int(report["monotonicity_violations"]):
        failures.append("axiom violations")
    if float(report["lipschitz_estimate"]) > sigma.lipschitz_k + 1e-12:
        failures.append("Lipschitz estimate above declared k")
    if float(report["item4_max_residual"]) > 1e-10:
        failures.append("axiom 4 residual")
    if float(report["item5_C0_estimate"]) > sigma.item5_C0 + 1e-10:
        failures.append("C0 estimate above declared C0")
    summary = _kv(os.path.join(outdir, "dissipation_v1_summary.txt"))
    if int(summary["violation_count"]):
        failures.append("V1 violation_count=%s" % summary["violation_count"])
    gap = _csv(os.path.join(outdir, "gap.csv"))
    if any(g > b for g, b in zip(gap["gap"], gap["conservative_bound"])):
        failures.append("gap above its conservative bound")
    return failures, {}


def _check_large_grid(outdir, config):
    last = _last_row(os.path.join(outdir, "trajectory.csv"))
    failures = [] if math.isfinite(last["norm_l2"]) else ["non-finite final norm"]
    return failures, {"norm_l2": last["norm_l2"]}


CHECKS = {"certify": _check_certify, "figure1": _check_figure1,
          "axiom_sweep": _check_axiom_sweep, "large_grid": _check_large_grid}


def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        return json.load(fh)


def check_reference(workload, seed, keys, reference):
    """Key numbers against the reference file, to REFERENCE_RTOL relative.

    The reference holds the default seed; a seed-insensitive workload is
    compared at every seed.
    """
    expected = reference["values"].get(workload.name)
    if not expected or (workload.seed_sensitive and seed != reference["seed"]):
        return []
    return ["%s=%r, reference %r" % (k, keys.get(k), v) for k, v in expected.items()
            if k not in keys or abs(keys[k] - v) > REFERENCE_RTOL * abs(v)]


# ---------------------------------------------------------------- calls

@dataclass
class Call:
    wall_s: float
    setup_s: float
    member_steps: int
    artifact_bytes: int
    failures: list
    keys: dict


def _artifact_bytes(outdir):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(outdir) for f in files)


@contextlib.contextmanager
def _fresh_output_root(scratch):
    """A new, empty SATISS_OUTPUT_ROOT for one call, removed afterwards."""
    directory = tempfile.mkdtemp(prefix="call-", dir=scratch)
    saved = os.environ.get(cli.OUTPUT_ROOT_ENV)
    os.environ[cli.OUTPUT_ROOT_ENV] = directory
    try:
        yield directory
    finally:
        if saved is None:
            del os.environ[cli.OUTPUT_ROOT_ENV]
        else:
            os.environ[cli.OUTPUT_ROOT_ENV] = saved
        shutil.rmtree(directory)


def _argv(root, workload, seed, directory, overrides):
    if workload.verb == "figure1":
        return ["figure1", FIGURE1_OUTDIR], None
    path = write_config(root, workload, seed, directory, overrides)
    return [workload.verb, path], cli.parse_config(path)


def call(root, workload, seed, scratch, reference, tracer=None, overrides=None):
    """Time one call of ``cli.main`` and check what it wrote.

    With a tracer, spans are recorded at every call site.
    """
    with _fresh_output_root(scratch) as directory:
        argv, config = _argv(root, workload, seed, directory, overrides)
        clock = tracing.SetupClock()
        main = cli.main
        replacements = clock.replacements()
        if tracer is not None:
            main = tracer.wrap("cli.main", main)
            replacements += tracer.replacements()
        sink = io.StringIO()
        with tracing.patched(replacements), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            start = perf_counter()
            try:
                code = main(argv)
            except Exception:
                code = traceback.format_exc()
            wall = perf_counter() - start
        keys, nbytes = {}, 0
        if code != 0:
            failures = ["exit %s: %s" % (code, sink.getvalue())]
        else:
            outdir = os.path.join(directory, FIGURE1_OUTDIR if config is None
                                  else config["output_dir"])
            try:
                failures, keys = CHECKS[workload.name](outdir, config)
            except (OSError, KeyError, ValueError) as exc:
                failures = ["unreadable artifact: %r" % exc]
            failures += check_reference(workload, seed, keys, reference)
            nbytes = _artifact_bytes(outdir)
        setup = clock.first_entry - start if clock.first_entry else math.nan
        return Call(wall, setup, member_steps(workload, config), nbytes, failures, keys)


# ---------------------------------------------------------------- runs

@dataclass
class RunResult:
    metrics: dict               # name -> (value, sample count)
    attempted: int
    failed: int
    failures: list
    tracer: tracing.Tracer = None


def _windowed(seconds, step):
    """Call ``step`` until the next call would end past ``seconds``; at
    least once.  ``step`` returns the time it took."""
    start = perf_counter()
    last = step()
    while perf_counter() - start + last <= seconds:
        last = step()


def run(root, name, seed, seconds, trace, scratch, reference=None, overrides=None):
    """One benchmark run: end-to-end metrics untraced, or per-layer metrics
    from traced calls alternating with untraced ones."""
    workload = WORKLOADS[name]
    reference = load_reference() if reference is None else reference
    untraced, traced = [], []
    tracer = tracing.Tracer() if trace else None

    def step():
        begin = perf_counter()
        untraced.append(call(root, workload, seed, scratch, reference,
                             overrides=overrides))
        if tracer is not None:
            tracer.run_id = len(traced)
            traced.append(call(root, workload, seed, scratch, reference,
                               tracer=tracer, overrides=overrides))
        return perf_counter() - begin

    _windowed(seconds, step)
    calls = untraced + traced
    failures = [f for c in calls for f in c.failures]
    failed = sum(1 for c in calls if c.failures)
    if not trace:
        setups = [c.setup_s for c in untraced if not math.isnan(c.setup_s)]
        n = len(untraced)
        metrics = {
            "wall_s": (statistics.median(c.wall_s for c in untraced), n),
            "setup_s": (statistics.median(setups), len(setups)),
            "member_steps_per_s": (statistics.median(
                c.member_steps / c.wall_s for c in untraced), n),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }
    else:
        per_call = []
        for run_id, c in enumerate(traced):
            layers = tracing.layer_metrics(tracer.spans, run_id)
            layers["cli.artifact_bytes"] = c.artifact_bytes
            per_call.append(layers)
        n = len(traced)
        # median_low keeps exact counts whole
        metrics = {key: (statistics.median_low(m[key] for m in per_call), n)
                   for key in per_call[0]}
        metrics["trace.overhead"] = (
            statistics.median(c.wall_s for c in traced)
            / statistics.median(c.wall_s for c in untraced) - 1.0, n)
    return RunResult(metrics, len(calls), failed, failures, tracer)
