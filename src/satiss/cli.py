"""Configuration-driven experiment runner.

Verbs:

* ``run <config>``      simulate per config and emit CSV artifacts
* ``figure1 <outdir>``  canned disturbed-saturated vs linear comparison
* ``axioms <kind> <level>``  randomized saturation axiom sweep
* ``certify <config>``  ensemble ISS certification

Configs are flat ``key = value`` text with dotted section keys, e.g.
``domain.L = 6.283185307179586``.  The environment variable
``SATISS_OUTPUT_ROOT`` prefixes relative output directories.  Exit codes:
0 success, 2 configuration error, 3 gate failure (dissipativity or
parameter infeasibility, or axiom violations) or a diverged integration
(a non-finite state, named by step and member), 4 certification failure.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import iss as iss_mod
from . import lyapunov as lyap
from .errors import CertificationError, ConfigError, DissipativityGateFailed, \
    InfeasibleParameters, ParameterError, SimulationDiverged
from .saturation import check_axioms, hilbert_norm_map, pointwise_linf_map
from .spaces import Grid, StateVector, norm_graph
from .system import _write_csv, assemble_closed_loop, build_kdv_operator, \
    cosine_disturbance, linear_loop_operator, simulate, with_disturbance, \
    zero_disturbance

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


_SCHEMA = {
    "domain.L": (float, _REQUIRED),
    "domain.n_interior": (int, _REQUIRED),
    "time.T": (float, _REQUIRED),
    "time.dt": (float, _REQUIRED),
    "initial.family": (str, "one_minus_cosine"),
    "initial.amplitude": (float, 1.0),
    "initial.mode": (int, 1),
    "initial.graph_norm": (float, 1.0),
    "disturbance.kind": (str, "zero"),
    "disturbance.amplitude": (float, 0.0),
    "disturbance.frequency": (float, 1.0),
    "saturation.kind": (str, "none"),
    "saturation.level": (float, 1.0),
    "analysis.axioms": (_parse_bool, False),
    "analysis.axioms_samples": (int, 10000),
    "analysis.axioms_amplitude": (float, 3.0),
    "analysis.dissipation": (str, "off"),
    "analysis.safety": (float, 0.5),
    "analysis.gap": (_parse_bool, False),
    "analysis.semiglobal_r": (_parse_float_list, []),
    "analysis.semiglobal_samples": (int, 5),
    "analysis.certificate": (_parse_bool, False),
    "certificate.members": (int, 20),
    "certificate.rho_cap": (_parse_optional_float, None),
    "output.states": (_parse_bool, False),
    "rng_seed": (int, 0),
    "output_dir": (str, "out"),
}

_INITIAL_FAMILIES = ("zero", "one_minus_cosine", "sine_mode", "smooth_random")
_DISTURBANCE_KINDS = ("zero", "cosine")
_SATURATION_KINDS = ("none", "pointwise_linf", "hilbert_norm")
_DISSIPATION_CHOICES = ("off", "v", "v1", "v2")


class ExperimentConfig:
    """Validated experiment description; attributes mirror the dotted keys."""

    def __init__(self, entries: dict):
        self.entries = entries

    def __getitem__(self, key):
        return self.entries[key]

    @property
    def echo_lines(self):
        out = []
        for key in sorted(self.entries):
            out.append("config %s = %s" % (key, _canonical(self.entries[key])))
        return out


def _canonical(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, list):
        return ",".join(format(v, ".17g") for v in value)
    if value is None:
        return "none"
    return str(value)


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    return parse_config_text(text)


def parse_config_text(text: str) -> ExperimentConfig:
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
        parser, _ = _SCHEMA[key]
        try:
            entries[key] = parser(value)
        except ValueError as exc:
            raise ConfigError("line %d: field %r: %s" % (lineno, key, exc))
    for key, (_, default) in _SCHEMA.items():
        if key in entries:
            continue
        if default is _REQUIRED:
            raise ConfigError("missing field %r" % key)
        entries[key] = default
    return _validate(ExperimentConfig(entries))


def _validate(config: ExperimentConfig) -> ExperimentConfig:
    e = config.entries
    for key in ("domain.L", "time.T", "time.dt", "saturation.level"):
        if not e[key] > 0:
            raise ConfigError("field %r must be positive" % key)
    if e["domain.n_interior"] < 5:
        raise ConfigError("field 'domain.n_interior' must be at least 5")
    if e["time.dt"] > e["time.T"]:
        raise ConfigError("field 'time.dt' must not exceed 'time.T'")
    if e["initial.family"] not in _INITIAL_FAMILIES:
        raise ConfigError("field 'initial.family' must be one of %s" % (_INITIAL_FAMILIES,))
    if e["disturbance.kind"] not in _DISTURBANCE_KINDS:
        raise ConfigError("field 'disturbance.kind' must be one of %s" % (_DISTURBANCE_KINDS,))
    if e["saturation.kind"] not in _SATURATION_KINDS:
        raise ConfigError("field 'saturation.kind' must be one of %s" % (_SATURATION_KINDS,))
    if e["analysis.dissipation"] not in _DISSIPATION_CHOICES:
        raise ConfigError("field 'analysis.dissipation' must be one of %s"
                          % (_DISSIPATION_CHOICES,))
    sigma = _saturation_map(e["saturation.kind"], e["saturation.level"], e["domain.L"])
    k = sigma.lipschitz_k if sigma is not None else 1.0
    if e["time.dt"] * k >= 1.0:
        raise ConfigError("field 'time.dt' violates dt * k < 1 for the explicit "
                          "feedback term (k = %g)" % k)
    return config


def _saturation_map(kind, level, L):
    """The map named by a ``saturation.kind`` value; None for 'none'."""
    if kind == "none":
        return None
    if kind == "pointwise_linf":
        return pointwise_linf_map(level, L)
    return hilbert_norm_map(level)


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
        return StateVector(grid, amp * (1.0 - np.cos(2.0 * np.pi * x / grid.length_L)))
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
    sigma = _saturation_map(config["saturation.kind"], config["saturation.level"],
                            config["domain.L"])
    return grid, A, assemble_closed_loop(A, sigma, _disturbance(config))


def _make_output_dir(path_str):
    """Create the output directory, under $SATISS_OUTPUT_ROOT when relative."""
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not os.path.isabs(path_str):
        path_str = os.path.join(root, path_str)
    os.makedirs(path_str, exist_ok=True)
    return path_str


def _write_text(outdir, files, name, text):
    with open(os.path.join(outdir, name), "w") as fh:
        fh.write(text)
    files.append(name)


def _write_manifest(outdir, config_lines, files):
    path = os.path.join(outdir, "manifest.txt")
    with open(path, "w") as fh:
        fh.write("# experiment manifest\n")
        for line in config_lines:
            fh.write(line + "\n")
        for name in sorted(files):
            fh.write("file %s\n" % name)
        fh.write("file manifest.txt\n")
    return path


def run_experiment(config: ExperimentConfig, output_dir=None):
    """Simulate per config, run the toggled analyses, write all artifacts.

    Returns the list of files written (relative to the output directory).
    Deterministic for a fixed (config, rng_seed): identical bytes per run.
    """
    outdir = _make_output_dir(output_dir or config["output_dir"])
    files = []

    grid, A, sys_loop = _closed_loop(config)
    sigma = sys_loop.sigma
    z0 = _initial_state(config, grid, A)
    T, dt = config["time.T"], config["time.dt"]
    seed = config["rng_seed"]

    C = lyap.measure_decay_constant(linear_loop_operator(A))
    params = _dissipation_params(config, A, sigma, z0, C, grid, seed)

    traj = simulate(sys_loop, z0, T, dt,
                    observers=lyap.trajectory_observers(params) if params else None,
                    keep_states=config["output.states"])
    traj.write_observables_csv(os.path.join(outdir, "trajectory.csv"))
    files.append("trajectory.csv")
    if config["output.states"]:
        traj.write_states_csv(os.path.join(outdir, "states.csv"))
        files.append("states.csv")

    if config["analysis.axioms"]:
        if sigma is None:
            raise ConfigError("analysis.axioms needs a saturation map "
                              "(field 'saturation.kind' is 'none')")
        report = check_axioms(sigma, grid, config["analysis.axioms_samples"],
                              config["analysis.axioms_amplitude"]
                              * config["saturation.level"], seed)
        _write_text(outdir, files, "axioms_%s.txt" % sigma.kind.value,
                    report.as_kv_text())

    which = config["analysis.dissipation"]
    if which != "off":
        report, summary = _dissipation_report(traj, params, C, which)
        name = "dissipation_%s.csv" % which
        report.write_csv(os.path.join(outdir, name))
        files.append(name)
        _write_text(outdir, files, "dissipation_%s_summary.txt" % which, summary)

    if config["analysis.gap"]:
        gap = iss_mod.gronwall_gap(sys_loop, z0, sys_loop.d, T, dt)
        gap.write_csv(os.path.join(outdir, "gap.csv"))
        files.append("gap.csv")

    r_list = config["analysis.semiglobal_r"]
    if r_list:
        fit = iss_mod.fit_semiglobal(with_disturbance(sys_loop, zero_disturbance()),
                                     r_list, config["analysis.semiglobal_samples"],
                                     T, dt, seed)
        _write_text(outdir, files, "semiglobal.txt", "".join(
            "r=%.17g K=%.17g mu=%.17g lift=%.17g\n"
            % (r, fit.K_of_r[i], fit.mu_of_r[i], fit.fit_residuals[i])
            for i, r in enumerate(fit.r_values)))

    if config["analysis.certificate"]:
        cert = _run_certificate(config, sys_loop, grid, A, T, dt)
        _write_text(outdir, files, "certificate.txt", cert.as_kv_text())

    _write_manifest(outdir, config.echo_lines, files)
    return outdir, files + ["manifest.txt"]


def _dissipation_params(config, A, sigma, z0, C, grid, seed):
    """Lyapunov constants of the V1 or V2 report; None for 'off' and 'v'."""
    which = config["analysis.dissipation"]
    if which in ("off", "v"):
        return None
    if which == "v1":
        if sigma is None:
            raise ConfigError("analysis.dissipation = v1 needs a saturation map")
        return lyap.case1_params(C, sigma, safety=config["analysis.safety"])
    c_s = lyap.estimate_embedding_constant(grid, n_samples=200, rng_seed=seed)
    r = norm_graph(z0, A)
    if r == 0.0:
        raise ConfigError("analysis.dissipation = v2 needs a nonzero initial state")
    return lyap.case2_params(C, c_s, r)


def _dissipation_report(traj, params, C, which):
    if which == "v":
        report = lyap.dissipation_report(traj, "V", alpha_coeff=1.0, rho_gain=0.0)
        summary = ("which=V\nalpha=1\nrho=0\nviolation_count=%d\nworst_margin=%.17g\n"
                   % (report.violation_count, report.worst_margin))
        return report, summary
    if which == "v1":
        alpha = lyap.case1_decrease_coeff(C, params.M, params.eps1, params.eps2,
                                          params.norm_B, 1.0, params.C0, keep_C0=True)
        alpha_alt = lyap.case1_decrease_coeff(C, params.M, params.eps1, params.eps2,
                                              params.norm_B, 1.0, params.C0,
                                              keep_C0=False)
        rho = lyap.case1_iss_gain(params.M, params.eps1, params.eps2,
                                  params.C0, params.k)
        report = lyap.dissipation_report(traj, "V1", alpha, rho)
        alt = lyap.dissipation_report(traj, "V1", alpha_alt, rho)
        summary = ("which=V1\nalpha=%.17g\nalpha_no_C0=%.17g\nrho=%.17g\n"
                   "violation_count=%d\nworst_margin=%.17g\n"
                   "violation_count_no_C0=%d\nworst_margin_no_C0=%.17g\n"
                   % (alpha, alpha_alt, rho, report.violation_count,
                      report.worst_margin, alt.violation_count, alt.worst_margin))
        return report, summary
    alpha = params.C
    report = lyap.dissipation_report(traj, "V2", alpha, 0.0)
    mu = lyap.case2_decay_rate(params.C, 1.0, params.M_tilde, params.r)
    summary = ("which=V2\nalpha=%.17g\nrho=0\nmu=%.17g\nM_tilde=%.17g\nr=%.17g\n"
               "violation_count=%d\nworst_margin=%.17g\n"
               % (alpha, mu, params.M_tilde, params.r,
                  report.violation_count, report.worst_margin))
    return report, summary


def _run_certificate(config, sys_loop, grid, A, T, dt):
    members = config["certificate.members"]
    if members < 1:
        raise ConfigError("field 'certificate.members' must be >= 1")
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
    the plain linear feedback without disturbance.  Artifacts: the full
    state history of run (a), the paired norm traces, the observables of
    run (a), and a manifest.
    """
    outdir = _make_output_dir(output_dir)
    L = 2.0 * math.pi
    grid = Grid(L, FIGURE1_N_INTERIOR)
    A = build_kdv_operator(grid)
    x = grid.interior_nodes()
    z0 = StateVector(grid, 1.0 - np.cos(x))
    sigma = pointwise_linf_map(1.0, L)

    disturbed = simulate(assemble_closed_loop(A, sigma, cosine_disturbance(0.05, 1.0)),
                         z0, FIGURE1_T, FIGURE1_DT)
    linear = simulate(assemble_closed_loop(A, None, zero_disturbance()),
                      z0, FIGURE1_T, FIGURE1_DT)

    files = []
    disturbed.write_states_csv(os.path.join(outdir, "figure1_states.csv"))
    files.append("figure1_states.csv")
    disturbed.write_observables_csv(os.path.join(outdir, "figure1_observables.csv"))
    files.append("figure1_observables.csv")
    _write_csv(os.path.join(outdir, "figure1_norms.csv"),
               ("t", "norm_disturbed", "norm_linear"),
               [disturbed.times, disturbed.observables["norm_l2"],
                linear.observables["norm_l2"]])
    files.append("figure1_norms.csv")
    config_lines = [
        "config preset = figure1",
        "config domain.L = %s" % format(L, ".17g"),
        "config domain.n_interior = %d" % FIGURE1_N_INTERIOR,
        "config time.T = %s" % format(FIGURE1_T, ".17g"),
        "config time.dt = %s" % format(FIGURE1_DT, ".17g"),
        "config initial.family = one_minus_cosine",
        "config disturbance = 0.05*cos(t)",
        "config saturation.kind = pointwise_linf",
        "config saturation.level = 1",
    ]
    _write_manifest(outdir, config_lines, files)
    return outdir, files + ["manifest.txt"]


def _cmd_run(args):
    config = parse_config(args.config)
    outdir, files = run_experiment(config)
    print("wrote %d artifacts to %s" % (len(files), outdir))
    return 0


def _cmd_figure1(args):
    outdir, files = reproduce_figure1(args.outdir)
    print("wrote %d artifacts to %s" % (len(files), outdir))
    return 0


_AXIOM_KIND_ALIASES = {
    "pointwise_linf": "pointwise_linf",
    "pointwise": "pointwise_linf",
    "hilbert_norm": "hilbert_norm",
    "hilbert": "hilbert_norm",
}


def _cmd_axioms(args):
    kind = _AXIOM_KIND_ALIASES.get(args.kind)
    if kind is None:
        raise ConfigError("unknown saturation kind %r" % args.kind)
    level = args.level
    L = 2.0 * math.pi
    sigma = _saturation_map(kind, level, L)
    report = check_axioms(sigma, Grid(L, 127), args.samples, 3.0 * level, args.seed)
    sys.stdout.write("kind=%s\nlevel=%s\n" % (kind, format(level, ".17g")))
    sys.stdout.write(report.as_kv_text())
    failed = (report.bound_violations > 0 or report.monotonicity_violations > 0
              or report.lipschitz_estimate > sigma.lipschitz_k + 1e-12
              or report.item4_max_residual > 1e-10
              or report.item5_C0_estimate > sigma.item5_C0 + 1e-10)
    return 3 if failed else 0


def _cmd_certify(args):
    config = parse_config(args.config)
    outdir = _make_output_dir(config["output_dir"])
    grid, A, sys_loop = _closed_loop(config)
    files = []
    cert = _run_certificate(config, sys_loop, grid, A, config["time.T"],
                            config["time.dt"])
    _write_text(outdir, files, "certificate.txt", cert.as_kv_text())
    _write_manifest(outdir, config.echo_lines, files)
    sys.stdout.write(cert.as_kv_text())
    if not cert.valid():
        raise CertificationError("certificate max violation %g exceeds 1e-6"
                                 % cert.max_violation)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="satiss",
        description="saturated-feedback dissipative PDE simulation and "
                    "stability certification")
    sub = parser.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)
    p_fig = sub.add_parser("figure1", help="disturbed vs linear comparison preset")
    p_fig.add_argument("outdir")
    p_fig.set_defaults(func=_cmd_figure1)
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
