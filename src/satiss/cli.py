"""Configuration-driven experiment runner.

Verbs:

* ``run <config>``      simulate per config and emit CSV artifacts
* ``figure1 <outdir>``  canned disturbed-saturated vs linear comparison
* ``axioms <kind> <level>``  randomized saturation axiom sweep
* ``certify <config>``  ensemble ISS certification

Configs are flat ``key = value`` text with dotted section keys, e.g.
``domain.L = 6.283185307179586``.  Each key's row in ``_SCHEMA`` gives its
parser, its default and the values it allows; a config is checked against
every row before any file is written.  The environment variable
``SATISS_OUTPUT_ROOT`` prefixes relative output directories.  A verb makes
its output directory first, and if it fails, removes what it made or wrote
there.  Exit codes: 0 success, 2 configuration error, 3 gate failure
(dissipativity or parameter infeasibility, or axiom violations, of
``axioms`` or of the sweep ``run`` wrote) or a diverged integration (a
non-finite state, named by step and member), 4 certification failure (of
``certify`` or of the certificate ``run`` wrote).
"""
from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import replace

import numpy as np

from . import iss as iss_mod
from . import lyapunov as lyap
from .csvio import kv_text, write_csv
from .errors import CertificationError, ConfigError, DissipativityGateFailed, \
    InfeasibleParameters, ParameterError, SimulationDiverged
from .saturation import _check_sweep, check_axioms, hilbert_norm_map, \
    pointwise_linf_map
from .spaces import Grid, StateVector, norm_graph
from .system import Trajectory, assemble_closed_loop, build_kdv_operator, \
    cosine_disturbance, linear_loop_operator, simulate, zero_disturbance

OUTPUT_ROOT_ENV = "SATISS_OUTPUT_ROOT"

_REQUIRED = object()


def _parse_bool(s):
    v = s.strip().lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ValueError("not a boolean: %r" % s)


def _parse_float_list(s):
    s = s.strip()
    if not s:
        return []
    return [float(tok) for tok in s.split(",")]


def _parse_optional_float(s):
    return None if s.strip().lower() == "none" else float(s)


def _one_of(*choices):
    return (lambda v: v in choices), "must be one of %s" % (choices,)


def _at_least(low, message):
    return (lambda v: not v < low), message


_POSITIVE = (lambda v: not v <= 0), "must be positive"
_POSITIVE_FINITE = (lambda v: 0 < v < math.inf), "must be positive and finite"

#: key -> (parser, default, allowed): ``allowed`` is None for any value, or
#: a test of one value with the message that says what the test asks.
#: Every real value must also be finite; that is checked after the test,
#: and the tests let NaN through to it.
_SCHEMA = {
    "domain.L": (float, _REQUIRED, _POSITIVE_FINITE),
    "domain.n_interior": (int, _REQUIRED, _at_least(5, "must be at least 5")),
    "time.T": (float, _REQUIRED, _POSITIVE_FINITE),
    "time.dt": (float, _REQUIRED, _POSITIVE_FINITE),
    "initial.family": (str, "one_minus_cosine",
                       _one_of("zero", "one_minus_cosine", "sine_mode", "smooth_random")),
    "initial.amplitude": (float, 1.0, None),
    "initial.mode": (int, 1, None),
    "initial.graph_norm": (float, 1.0, _POSITIVE),
    "disturbance.kind": (str, "zero", _one_of("zero", "cosine")),
    "disturbance.amplitude": (float, 0.0, None),
    "disturbance.frequency": (float, 1.0, None),
    "saturation.kind": (str, "none", _one_of("none", "pointwise_linf", "hilbert_norm")),
    "saturation.level": (float, 1.0, _POSITIVE),
    "analysis.axioms": (_parse_bool, False, None),
    "analysis.axioms_samples": (int, 10000, _at_least(1, "must be >= 1")),
    "analysis.dissipation": (str, "off", _one_of("off", "v", "v1", "v2")),
    "analysis.gap": (_parse_bool, False, None),
    "analysis.semiglobal_r": (_parse_float_list, [], None),
    "analysis.semiglobal_samples": (int, 5, _at_least(1, "must be >= 1")),
    "analysis.certificate": (_parse_bool, False, None),
    "certificate.members": (int, 20, _at_least(1, "must be >= 1")),
    "certificate.rho_cap": (_parse_optional_float, None,
                            ((lambda v: v is None or not v < 0),
                             "must be non-negative or none")),
    "output.states": (_parse_bool, False, None),
    "rng_seed": (int, 0, _at_least(0, "must be non-negative")),
    "output_dir": (str, "out", None),
}


#: the axiom sweeps of ``run`` and ``axioms`` draw samples of norm up to
#: this multiple of the saturation level
AXIOMS_AMPLITUDE = 3.0

#: saturation.kind -> factory (level, L) of the map; ``satiss axioms`` also
#: takes a kind by its first word
_SATURATION_MAPS = {
    "pointwise_linf": pointwise_linf_map,
    "hilbert_norm": lambda level, L: hilbert_norm_map(level),
}


def parse_config(path) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    return parse_config_text(text)


def parse_config_text(text: str) -> dict:
    """The validated config: every ``_SCHEMA`` key with its parsed value."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value', got %r" % (lineno, raw))
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError("line %d: unknown field %r" % (lineno, key))
        parser = _SCHEMA[key][0]
        try:
            entries[key] = parser(value)
        except ValueError as exc:
            raise ConfigError("line %d: field %r: %s" % (lineno, key, exc))
    for key, (_, default, _) in _SCHEMA.items():
        if key in entries:
            continue
        if default is _REQUIRED:
            raise ConfigError("missing field %r" % key)
        entries[key] = default
    return _validate(entries)


def _validate(e: dict) -> dict:
    for key, (_, _, allowed) in _SCHEMA.items():
        values = e[key] if isinstance(e[key], list) else [e[key]]
        if allowed is not None and not all(map(allowed[0], values)):
            raise ConfigError("field %r %s" % (key, allowed[1]))
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ConfigError("field %r must be finite" % key)
    if e["time.dt"] > e["time.T"]:
        raise ConfigError("field 'time.dt' must not exceed 'time.T'")
    sigma = _saturation_map(e)
    k = sigma.lipschitz_k if sigma is not None else 1.0
    if e["time.dt"] * k >= 1.0:
        raise ConfigError("field 'time.dt' violates dt * k < 1 for the explicit "
                          "feedback term (k = %g)" % k)
    if sigma is None and (e["analysis.axioms"] or e["analysis.dissipation"] == "v1"):
        key = "analysis.axioms" if e["analysis.axioms"] else "analysis.dissipation"
        raise ConfigError("field %r needs a saturation map (field "
                          "'saturation.kind' is 'none')" % key)
    family = e["initial.family"]
    zero = [key for key, is_zero in (
        ("initial.family", family == "zero"),
        ("initial.amplitude", family != "smooth_random" and e["initial.amplitude"] == 0),
        ("initial.mode", family == "sine_mode" and e["initial.mode"] == 0)) if is_zero]
    if e["analysis.dissipation"] == "v2" and zero:
        # the V2 constants take r, the initial graph norm, as a positive bound
        raise ConfigError("field 'analysis.dissipation' = v2 needs a nonzero "
                          "initial state (field %r makes it zero)" % zero[0])
    if e["analysis.axioms"]:
        try:
            _check_sweep(e["domain.n_interior"], e["analysis.axioms_samples"],
                         AXIOMS_AMPLITUDE * e["saturation.level"])
        except ParameterError as exc:
            raise ConfigError("field 'saturation.level': %s" % exc)
    return e


def _saturation_map(config):
    """The map of a config's ``saturation.kind``; None for 'none'."""
    make = _SATURATION_MAPS.get(config["saturation.kind"])
    return None if make is None else make(config["saturation.level"], config["domain.L"])


def _disturbance(config):
    if config["disturbance.kind"] == "zero" or config["disturbance.amplitude"] == 0.0:
        return zero_disturbance()
    return cosine_disturbance(config["disturbance.amplitude"],
                              config["disturbance.frequency"])


def _initial_state(config, grid, A):
    family = config["initial.family"]
    amp = config["initial.amplitude"]
    x = grid.interior_nodes()
    if family == "zero":
        return StateVector(grid, np.zeros(grid.n_interior))
    if family == "one_minus_cosine":
        with np.errstate(over="ignore"):
            values = amp * (1.0 - np.cos(2.0 * np.pi * x / grid.length_L))
        if not np.isfinite(values).all():
            raise ConfigError("field 'initial.amplitude' = %g overflows the "
                              "one_minus_cosine profile" % amp)
        return StateVector(grid, values)
    if family == "sine_mode":
        return StateVector(grid, amp * np.sin(config["initial.mode"] * np.pi * x
                                              / grid.length_L))
    rng = np.random.default_rng((config["rng_seed"], 101))
    return iss_mod.smooth_initial_data(grid, A, config["initial.graph_norm"], rng)


def _closed_loop(config):
    """(grid, A, loop) of a config: the KdV operator closed through its
    saturation map and disturbance."""
    grid = Grid(config["domain.L"], config["domain.n_interior"])
    A = build_kdv_operator(grid)
    return grid, A, assemble_closed_loop(A, _saturation_map(config), _disturbance(config))


@contextmanager
def _output_dir(path):
    """Make ``path`` (under $SATISS_OUTPUT_ROOT when relative) with its
    missing parents, or ConfigError, and yield (outdir, files) to a body
    that lists each file in ``files`` just before it opens it.  If the body
    raises, the directories made here are removed, or else the listed files."""
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not os.path.isabs(path):
        path = os.path.join(root, path)
    made, head = None, os.path.abspath(path)
    while not os.path.exists(head):
        made, head = head, os.path.dirname(head)
    try:
        os.makedirs(path, exist_ok=True)
    except FileExistsError:
        raise ConfigError("output_dir %r exists and is not a directory" % path)
    except OSError as exc:
        raise ConfigError("output_dir %r cannot be made: %s" % (path, exc))
    files = []
    try:
        yield path, files
    except BaseException:
        if made is not None:
            shutil.rmtree(made)
        else:
            for name in files:
                with suppress(FileNotFoundError):
                    os.remove(os.path.join(path, name))
        raise


def _listed(outdir, files, name):
    """The path of ``name`` in ``outdir``, listed in ``files`` first."""
    files.append(name)
    return os.path.join(outdir, name)


def _write_text(outdir, files, name, text):
    with open(_listed(outdir, files, name), "w") as fh:
        fh.write(text)


def _write_manifest(outdir, files, config_pairs):
    """The config, then every file of ``files`` and the manifest itself."""
    names = sorted(files) + ["manifest.txt"]
    echo = kv_text((("config " + key, value) for key, value in config_pairs), " = ")
    _write_text(outdir, files, "manifest.txt", "# experiment manifest\n" + echo
                + "".join("file %s\n" % name for name in names))


def _judge(sigma=None, sweep=None, cert=None):
    """Raise for a ``sweep`` that refutes ``sigma`` or an invalid ``cert``;
    None stands for one that was not made."""
    refuted = sweep.refuted(sigma) if sweep is not None else []
    if refuted:
        raise InfeasibleParameters("the axiom sweep of %s refutes %s"
                                   % (sigma.kind.value, ", ".join(refuted)))
    if cert is not None and not cert.valid():
        raise CertificationError("certificate max violation %g exceeds %g"
                                 % (cert.max_violation, iss_mod.CERTIFICATE_TOLERANCE))


def run_experiment(config: dict, output_dir=None):
    """Simulate per config, run the toggled analyses, write all artifacts.

    Returns the output directory and the files written there.  Once every
    artifact is written, a sweep that refutes the saturation map's axioms
    or constants raises InfeasibleParameters, and an invalid certificate
    CertificationError.  Deterministic for a fixed (config, rng_seed):
    identical bytes per run.
    """
    sweep, cert = None, None
    with _output_dir(output_dir or config["output_dir"]) as (outdir, files):
        grid, A, sys_loop = _closed_loop(config)
        sigma = sys_loop.sigma
        z0 = _initial_state(config, grid, A)
        T, dt = config["time.T"], config["time.dt"]
        seed = config["rng_seed"]

        params, coeffs = _dissipation_params(config, A, sigma, z0, grid, seed)

        with Trajectory.write_states_csv(_listed(outdir, files, "states.csv"), grid) \
                if config["output.states"] else nullcontext() as sink:
            if config["analysis.gap"]:
                # the main run is member 0 of the gap's batch
                gap = iss_mod.GapSums(sink)
                pair = simulate([sys_loop, replace(sys_loop, d=zero_disturbance())],
                                [z0, z0], T, dt, on_rows=gap)
                traj = pair.member(0)
            else:
                traj = simulate(sys_loop, z0, T, dt, on_rows=sink)
        if params:
            traj.observables.update((name, series(traj)) for name, series
                                    in lyap.trajectory_observers(params).items())
        traj.write_observables_csv(_listed(outdir, files, "trajectory.csv"))

        if config["analysis.axioms"]:
            sweep = check_axioms(sigma, grid, config["analysis.axioms_samples"],
                                 AXIOMS_AMPLITUDE * config["saturation.level"], seed)
            _write_text(outdir, files, "axioms_%s.txt" % sigma.kind.value,
                        sweep.as_kv_text())

        if coeffs:
            which = config["analysis.dissipation"]
            report = lyap.dissipation_report(traj, which.upper(), coeffs["alpha"],
                                             coeffs["rho"])
            report.write_csv(_listed(outdir, files, "dissipation_%s.csv" % which))
            _write_text(outdir, files, "dissipation_%s_summary.txt" % which, kv_text([
                ("which", which.upper()), *coeffs.items(),
                ("violation_count", report.violation_count),
                ("worst_margin", report.worst_margin)]))

        if config["analysis.gap"]:
            gap.report(pair, sys_loop.feedback_lipschitz).write_csv(
                _listed(outdir, files, "gap.csv"))

        r_list = config["analysis.semiglobal_r"]
        if r_list:
            fit = iss_mod.fit_semiglobal(replace(sys_loop, d=zero_disturbance()),
                                         r_list, config["analysis.semiglobal_samples"],
                                         T, dt, seed)
            _write_text(outdir, files, "semiglobal.txt", kv_text(
                pair for row in zip(fit.r_values, fit.K_of_r, fit.mu_of_r,
                                    fit.fit_residuals)
                for pair in zip(("r", "K", "mu", "lift"), row)))

        if config["analysis.certificate"]:
            cert = _run_certificate(config, sys_loop, grid, A, T, dt)
            _write_text(outdir, files, "certificate.txt", cert.as_kv_text())

        _write_manifest(outdir, files, sorted(config.items()))
    _judge(sigma, sweep, cert)
    return outdir, files


def _dissipation_params(config, A, sigma, z0, grid, seed):
    """(params, coeffs) of the configured report: the Lyapunov constants of
    V1 or V2 (None for V) and the summary's coefficients by name, alpha and
    rho among them; (None, None) for 'off'."""
    which = config["analysis.dissipation"]
    if which == "off":
        return None, None
    if which == "v":
        return None, {"alpha": 1.0, "rho": 0.0}
    C = lyap.measure_decay_constant(linear_loop_operator(A))
    if which == "v1":
        params = lyap.case1_params(C, sigma)
        return params, {"alpha": params.alpha, "rho": params.rho}
    c_s = lyap.estimate_embedding_constant(grid, n_samples=200, rng_seed=seed)
    r = norm_graph(z0, A)
    if r == 0.0:
        raise ConfigError("analysis.dissipation = v2 needs a nonzero initial state")
    params = lyap.case2_params(C, c_s, r)
    return params, {"alpha": params.C, "rho": 0.0, "mu": params.mu,
                    "M_tilde": params.M_tilde, "r": params.r}


def _run_certificate(config, sys_loop, grid, A, T, dt):
    members = config["certificate.members"]
    seed = config["rng_seed"]
    amp_targets = np.linspace(0.5, 5.0, members)
    d_amps = [0.0, 0.0, 0.02, 0.05, 0.1]
    d_freqs = [1.0, 0.7, 1.9]
    z0s, ds = [], []
    for i in range(members):
        rng = np.random.default_rng((seed, 77, i))
        z0s.append(iss_mod.smooth_initial_data(grid, A, amp_targets[i], rng))
        amp = d_amps[i % len(d_amps)]
        if amp == 0.0:
            ds.append(zero_disturbance())
        else:
            ds.append(cosine_disturbance(amp, d_freqs[i % len(d_freqs)]))
    return iss_mod.iss_certificate(sys_loop, z0s, ds, T, dt,
                                   rho_cap=config["certificate.rho_cap"])


FIGURE1_N_INTERIOR = 127
FIGURE1_DT = 1e-3
FIGURE1_T = 9.0


def reproduce_figure1(output_dir):
    """Disturbed-saturated loop against unsaturated, undisturbed decay.

    Both runs start from z0(x) = 1 - cos(x) on [0, 2*pi]; run (a) applies
    the pointwise saturation at level 1 under d(t) = 0.05 cos(t), run (b)
    the plain linear feedback without disturbance.  Both runs are one
    batch: run (b) is saturation at level +inf, its single run bit for bit.
    Artifacts: the full state history of run (a), the paired norm traces,
    the observables of run (a), and a manifest.
    """
    with _output_dir(output_dir) as (outdir, files):
        L = 2.0 * math.pi
        grid = Grid(L, FIGURE1_N_INTERIOR)
        A = build_kdv_operator(grid)
        z0 = StateVector(grid, 1.0 - np.cos(grid.interior_nodes()))
        sigma = pointwise_linf_map(1.0, L)

        runs = [assemble_closed_loop(A, sigma, cosine_disturbance(0.05, 1.0)),
                assemble_closed_loop(A, None, zero_disturbance())]
        with Trajectory.write_states_csv(_listed(outdir, files, "figure1_states.csv"),
                                         grid) as sink:
            both = simulate(runs, [z0, z0], FIGURE1_T, FIGURE1_DT,
                            on_rows=lambda times, rows: sink(times, rows[0]))

        both.member(0).write_observables_csv(
            _listed(outdir, files, "figure1_observables.csv"))
        write_csv(_listed(outdir, files, "figure1_norms.csv"),
                  ("t", "norm_disturbed", "norm_linear"),
                  [both.times, *both.observables["norm_l2"]])
        _write_manifest(outdir, files, [
            ("preset", "figure1"), ("domain.L", L),
            ("domain.n_interior", FIGURE1_N_INTERIOR), ("time.T", FIGURE1_T),
            ("time.dt", FIGURE1_DT), ("initial.family", "one_minus_cosine"),
            ("disturbance", "0.05*cos(t)"), ("saturation.kind", "pointwise_linf"),
            ("saturation.level", 1.0)])
    return outdir, files


def _wrote(result):
    outdir, files = result
    print("wrote %d artifacts to %s" % (len(files), outdir))
    return 0


def _cmd_axioms(args):
    kinds = [kind for kind in _SATURATION_MAPS if args.kind in (kind, kind.split("_")[0])]
    if not kinds:
        raise ConfigError("unknown saturation kind %r" % args.kind)
    if args.seed < 0:
        raise ConfigError("--seed must be non-negative")
    L = 2.0 * math.pi
    sigma = _SATURATION_MAPS[kinds[0]](args.level, L)
    report = check_axioms(sigma, Grid(L, 127), args.samples, AXIOMS_AMPLITUDE * args.level,
                          args.seed)
    sys.stdout.write(kv_text([("kind", kinds[0]), ("level", args.level)]))
    sys.stdout.write(report.as_kv_text())
    _judge(sigma, report)
    return 0


def _cmd_certify(args):
    config = parse_config(args.config)
    with _output_dir(config["output_dir"]) as (outdir, files):
        grid, A, sys_loop = _closed_loop(config)
        cert = _run_certificate(config, sys_loop, grid, A, config["time.T"],
                                config["time.dt"])
        _write_text(outdir, files, "certificate.txt", cert.as_kv_text())
        _write_manifest(outdir, files, sorted(config.items()))
    sys.stdout.write(cert.as_kv_text())
    _judge(cert=cert)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="satiss",
        description="saturated-feedback dissipative PDE simulation and "
                    "stability certification")
    sub = parser.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.set_defaults(func=lambda args: _wrote(run_experiment(parse_config(args.config))))
    p_fig = sub.add_parser("figure1", help="disturbed vs linear comparison preset")
    p_fig.add_argument("outdir")
    p_fig.set_defaults(func=lambda args: _wrote(reproduce_figure1(args.outdir)))
    p_ax = sub.add_parser("axioms", help="randomized saturation axiom sweep")
    p_ax.add_argument("kind")
    p_ax.add_argument("level", type=float)
    p_ax.add_argument("--samples", type=int, default=10000)
    p_ax.add_argument("--seed", type=int, default=0)
    p_ax.set_defaults(func=_cmd_axioms)
    p_cert = sub.add_parser("certify", help="ensemble ISS certification")
    p_cert.add_argument("config")
    p_cert.set_defaults(func=_cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (DissipativityGateFailed, InfeasibleParameters) as exc:
        print("gate failure: %s" % exc, file=sys.stderr)
        return 3
    except SimulationDiverged as exc:
        print("divergence: %s" % exc, file=sys.stderr)
        return 3
    except CertificationError as exc:
        print("certification failure: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
