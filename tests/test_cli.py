import hashlib
import os
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from satiss import cli
from satiss.cli import main, parse_config_text, reproduce_figure1, run_experiment
from satiss.errors import ConfigError, SimulationDiverged
from satiss.iss import IssCertificate

from conftest import L

MINIMAL = """
domain.L = 6.283185307179586
domain.n_interior = 31
time.T = 0.001
time.dt = 0.001
saturation.kind = pointwise_linf
output_dir = {out}
"""


def write_config(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return path


def test_parse_missing_required_field_names_it():
    with pytest.raises(ConfigError, match="domain.L"):
        parse_config_text("domain.n_interior = 31\ntime.T = 1\ntime.dt = 0.1\n")


def test_parse_unknown_field_names_line():
    with pytest.raises(ConfigError, match="line 2.*bogus"):
        parse_config_text("domain.L = 1.0\nbogus = 3\n")


def test_readme_names_every_config_key_and_no_other():
    # a dotted word whose head is a config section is a key to the reader
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(path) as fh:
        readme = fh.read()
    keys = set(cli._SCHEMA)
    sections = sorted({key.split(".")[0] for key in keys if "." in key})
    named = set(re.findall(r"\b(?:%s)\.(?!(?:txt|csv|cfg)\b)[A-Za-z_]\w*"
                           % "|".join(sections), readme))
    named |= {key for key in keys if "." not in key and re.search(r"\b%s\b" % key, readme)}
    assert sorted(keys - named) == []
    assert sorted(named - keys) == []


def test_parse_bad_value_reports_field():
    with pytest.raises(ConfigError, match="domain.n_interior"):
        parse_config_text("domain.n_interior = soon\n")


def test_parse_comments_and_blank_lines():
    cfg = parse_config_text(
        "# heading\n\ndomain.L = 2.0  # trailing\ndomain.n_interior = 8\n"
        "time.T = 1.0\ntime.dt = 0.01\n")
    assert cfg["domain.L"] == 2.0
    assert cfg["initial.family"] == "one_minus_cosine"


def test_parse_rejects_stiff_explicit_step():
    body = ("domain.L = 2.0\ndomain.n_interior = 8\ntime.T = 2.0\ntime.dt = 0.5\n"
            "saturation.kind = hilbert_norm\n")
    with pytest.raises(ConfigError, match="dt"):
        parse_config_text(body)


def test_minimal_run_two_rows(tmp_path):
    out = tmp_path / "out"
    cfg = parse_config_text(MINIMAL.format(out=out))
    outdir, files = run_experiment(cfg)
    assert sorted(files) == ["manifest.txt", "trajectory.csv"]
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 3  # header + 2 records
    manifest = (out / "manifest.txt").read_text()
    assert "file trajectory.csv" in manifest
    assert "config domain.n_interior = 31" in manifest
    # manifest lists exactly the files present
    listed = {line.split(" ", 1)[1] for line in manifest.splitlines()
              if line.startswith("file ")}
    assert listed == set(os.listdir(out))


def test_run_artifacts_byte_identical(tmp_path):
    # same config and seed into two directories: every artifact matches,
    # manifest included (it echoes the config, not the target path)
    body = MINIMAL + "analysis.axioms = true\nanalysis.axioms_samples = 50\n"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_experiment(parse_config_text(body.format(out=out_a)), output_dir=str(out_a))
    run_experiment(parse_config_text(body.format(out=out_a)), output_dir=str(out_b))
    assert sorted(os.listdir(out_a)) == sorted(os.listdir(out_b))
    for name in os.listdir(out_a):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def _counting_simulate(monkeypatch):
    """Replace ``satiss.cli.simulate`` with a wrapper that records, per
    call, the number of systems and whether a row sink was passed."""
    calls, real = [], cli.simulate

    def recording(sys, *args, **kwargs):
        calls.append((len(sys) if isinstance(sys, list) else 1,
                      kwargs.get("on_rows") is not None))
        return real(sys, *args, **kwargs)
    monkeypatch.setattr(cli, "simulate", recording)
    return calls


@pytest.mark.parametrize("states", [False, True])
def test_run_passes_a_state_sink_only_when_written(tmp_path, monkeypatch, states):
    calls = _counting_simulate(monkeypatch)
    body = MINIMAL + "output.states = %s\n" % str(states).lower()
    _, files = run_experiment(parse_config_text(body.format(out=tmp_path / "out")))
    assert calls == [(1, states)]
    assert ("states.csv" in files) == states


@pytest.mark.parametrize("states", [False, True])
def test_run_with_gap_integrates_once(tmp_path, monkeypatch, states):
    # the main run is member 0 of the gap's batch, its single run bit for
    # bit: its artifacts are those of a run without the gap
    body = (MINIMAL.replace("time.T = 0.001", "time.T = 0.05")
            + "disturbance.kind = cosine\ndisturbance.amplitude = 0.3\n"
            + "output.states = %s\n" % str(states).lower())
    alone, _ = run_experiment(parse_config_text(body.format(out=tmp_path / "alone")))
    calls = _counting_simulate(monkeypatch)
    outdir, files = run_experiment(parse_config_text(
        (body + "analysis.gap = true\n").format(out=tmp_path / "out")))
    assert calls == [(2, True)]
    assert ("states.csv" in files) == states and "gap.csv" in files
    for name in ("states.csv", "trajectory.csv") if states else ("trajectory.csv",):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


def test_output_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SATISS_OUTPUT_ROOT", str(tmp_path))
    cfg = parse_config_text(MINIMAL.format(out="nested/exp"))
    outdir, _ = run_experiment(cfg)
    assert outdir == os.path.join(str(tmp_path), "nested/exp")
    assert (tmp_path / "nested" / "exp" / "trajectory.csv").exists()


# sha256 of the four artifacts of the `satiss figure1` preset (T = 9, the
# full state history), as written when every CSV value was formatted one at
# a time by '%.17g'
_FIGURE1_DIGESTS = {
    "figure1_norms.csv":
        "4adb7f4766bc9c4989efe2137a222482a217dcc5eaa861fba407707d0c15ff95",
    "figure1_observables.csv":
        "cd4cac0f4fe44731e52cf445b4a8c5c36e55cebf89c55845ebae495107348a0e",
    "figure1_states.csv":
        "9ee0abd92c583ac0aba1e105ea724630d7ad610971f4ac011b9ecf3d3231b56c",
    "manifest.txt":
        "8361ebec3c11035f60c560a163ef597f7bae36524a9bb734259c5d2325be7e4d",
}


def test_figure1_artifacts_and_decay(tmp_path, monkeypatch):
    # both runs are one batch of two, each member its single run bit for bit
    calls = _counting_simulate(monkeypatch)
    outdir, files = reproduce_figure1(str(tmp_path / "fig"))
    assert calls == [(2, True)]
    assert sorted(files) == sorted(_FIGURE1_DIGESTS)
    assert {name: hashlib.sha256((tmp_path / "fig" / name).read_bytes()).hexdigest()
            for name in files} == _FIGURE1_DIGESTS
    rows = np.loadtxt(os.path.join(outdir, "figure1_norms.csv"),
                      delimiter=",", skiprows=1)
    t, disturbed, linear = rows[:, 0], rows[:, 1], rows[:, 2]
    # unsaturated, undisturbed trace obeys the exponential square-norm bound
    assert np.all(linear**2 <= np.exp(-t) * linear[0] ** 2 * (1.0 + 1e-6))
    # disturbed trace stays bounded and ends in a small neighborhood of 0
    assert disturbed.max() <= disturbed[0] + 1.0
    assert disturbed[-1] < 0.2
    # ordering: linear trace below the disturbed one from some time onward
    tail = np.nonzero(linear > disturbed)[0]
    t0_index = 0 if len(tail) == 0 else int(tail[-1]) + 1
    assert t[t0_index] <= 0.9 * t[-1]


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL.format(out=tmp_path / "cli_out"))
    assert main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "cli_out" / "trajectory.csv").exists()

    bad = write_config(tmp_path, "domain.L = -1\n", name="bad.cfg")
    assert main(["run", str(bad)]) == 2
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_cli_divergence_exit_code(tmp_path, capsys, monkeypatch):
    def diverging(*args, **kwargs):
        raise SimulationDiverged(7, 2)

    monkeypatch.setattr(cli, "simulate", diverging)
    cfg_path = write_config(tmp_path, MINIMAL.format(out=tmp_path / "div_out"))
    assert main(["run", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert "member 2" in err and "step 7" in err


@pytest.mark.parametrize("length, code, message", [
    ("1e300", 2, "config error: grid spacing h = "),
    ("1e-100", 2, "config error: grid spacing h = "),
])
def test_cli_grid_extremes_exit_typed(tmp_path, capsys, length, code, message):
    body = MINIMAL.format(out=tmp_path / "extreme_out").replace(
        "domain.L = 6.283185307179586", "domain.L = " + length)
    assert main(["run", str(write_config(tmp_path, body))]) == code
    assert message in capsys.readouterr().err


def test_cli_overflowing_dispersion_weight_is_config_error(tmp_path, capsys):
    # h = 1.6e-103: 1 / (2 h^3) is finite and twice it is not
    body = MINIMAL.format(out=tmp_path / "overflow_weight_out").replace(
        "domain.L = 6.283185307179586", "domain.L = 2.05e-101").replace(
        "domain.n_interior = 31", "domain.n_interior = 127")
    assert main(["run", str(write_config(tmp_path, body))]) == 2
    assert capsys.readouterr().err.startswith("config error: grid spacing h = ")


def test_cli_overflowing_graph_norm_is_divergence(tmp_path, capsys):
    # ||z||^2 is finite for this rough state, ||A z||^2 is not; the overflow
    # is reported once, as the typed line, and raises no numpy warning
    body = MINIMAL.format(out=tmp_path / "overflow_out") + (
        "initial.family = sine_mode\ninitial.mode = 15\ninitial.amplitude = 1e153\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(write_config(tmp_path, body))]) == 3
    assert capsys.readouterr().err \
        == "divergence: norm_graph of member 0 is not finite at step 0\n"


def test_cli_diverged_run_makes_no_output_dir(tmp_path, capsys):
    # the directories made for the run are removed, with the streamed
    # states.csv when there is one.  So a run that diverges leaves none
    # behind, whether a state turns non-finite in the step loop (amplitude
    # 1e307, step 1) or a norm does after every row was written (1e153, the
    # norm check after the loop)
    out = tmp_path / "div_out"
    for amplitude, message in (("1e153", "norm_graph of member 0 is not finite at step 0"),
                               ("1e307", "state of member 0 is not finite at step 1")):
        for states in ("false", "true"):
            body = MINIMAL.format(out=out / "nested" / "run") + (
                "initial.family = sine_mode\ninitial.mode = 15\n"
                "initial.amplitude = %s\noutput.states = %s\n" % (amplitude, states))
            assert main(["run", str(write_config(tmp_path, body))]) == 3
            assert capsys.readouterr().err == "divergence: %s\n" % message
            assert not out.exists()


def test_cli_diverged_streamed_run_keeps_an_existing_output_dir(tmp_path, capsys):
    # a directory that was there before keeps what it held, less the partial
    # states file
    out = tmp_path / "div_out"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    body = MINIMAL.format(out=out) + (
        "initial.family = sine_mode\ninitial.mode = 15\ninitial.amplitude = 1e307\n"
        "output.states = true\n")
    assert main(["run", str(write_config(tmp_path, body))]) == 3
    assert sorted(os.listdir(out)) == ["notes.txt"]


@pytest.mark.parametrize("verb", ["run", "certify", "figure1"])
def test_cli_output_dir_naming_a_file_is_config_error(tmp_path, capsys, monkeypatch, verb):
    # refused with exit 2 before any integration, and the file is left as it was
    def integrating(*args, **kwargs):
        raise AssertionError("integrated before the output directory was checked")
    monkeypatch.setattr(cli, "simulate", integrating)
    monkeypatch.setattr(cli.iss_mod, "simulate", integrating)
    monkeypatch.setenv("SATISS_OUTPUT_ROOT", str(tmp_path))
    (tmp_path / "afile").write_text("a file\n")
    body = MINIMAL.format(out="afile") + "output.states = true\ncertificate.members = 2\n"
    argv = ["figure1", "afile"] if verb == "figure1" \
        else [verb, str(write_config(tmp_path, body))]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: output_dir %r exists and is not " \
        "a directory\n" % str(tmp_path / "afile")
    assert (tmp_path / "afile").read_text() == "a file\n"


def test_cli_output_dir_under_a_file_is_config_error(tmp_path, capsys):
    # a path below a regular file cannot be made: exit 2, naming output_dir
    (tmp_path / "afile").write_text("a file\n")
    body = MINIMAL.format(out=tmp_path / "afile" / "out")
    assert main(["run", str(write_config(tmp_path, body))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output_dir %r cannot be made: "
                          % str(tmp_path / "afile" / "out"))
    assert "Traceback" not in err


def test_run_streams_states_in_bounded_memory(tmp_path):
    # one block of rows per member is held, not the history: from T = 1 to
    # T = 4 the peak traced memory grows by the per-step norms, well under a
    # quarter of the 3000 x 127 doubles the added states take
    peaks = []
    for T in ("1.0", "4.0"):
        body = MINIMAL.format(out=tmp_path / ("out_T" + T)).replace(
            "domain.n_interior = 31", "domain.n_interior = 127").replace(
            "time.T = 0.001", "time.T = " + T) + "output.states = true\n"
        config = parse_config_text(body)
        tracemalloc.start()
        try:
            _, files = run_experiment(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert "states.csv" in files
    assert peaks[1] - peaks[0] < 0.25 * 3000 * 127 * 8


def test_cli_certify_over_gain_cap_makes_no_output_dir(tmp_path, capsys):
    # member 2 is disturbed, so its gain exceeds a cap of 0; the certificate
    # fails before it is written, and the output directory made for it is
    # removed
    out = tmp_path / "cert_out"
    body = MINIMAL.format(out=out) + "certificate.members = 3\ncertificate.rho_cap = 0\n"
    assert main(["certify", str(write_config(tmp_path, body))]) == 4
    assert capsys.readouterr().err.startswith("certification failure: required gain ")
    assert not out.exists()


def test_cli_run_over_gain_cap_leaves_nothing_behind(tmp_path, capsys):
    # the trajectory is written before the certificate fails: a new output
    # directory is removed, and one that was there keeps only what it held
    out = tmp_path / "cert_out"
    body = MINIMAL.format(out=out) + ("analysis.certificate = true\n"
                                      "certificate.members = 3\ncertificate.rho_cap = 0\n")
    path = write_config(tmp_path, body)
    assert main(["run", str(path)]) == 4
    assert capsys.readouterr().err.startswith("certification failure: required gain ")
    assert not out.exists()
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    assert main(["run", str(path)]) == 4
    assert sorted(os.listdir(out)) == ["notes.txt"]


def _refuting_map(monkeypatch):
    # the pointwise clamp, declaring a C0 below what the sweep measures
    make = cli._SATURATION_MAPS["pointwise_linf"]
    monkeypatch.setitem(cli._SATURATION_MAPS, "pointwise_linf",
                        lambda level, L: replace(make(level, L), item5_C0=1e-3))
    return "analysis.axioms = true\nanalysis.axioms_samples = 50\n", 3, \
        "gate failure: the axiom sweep of pointwise_linf refutes item5_C0_estimate\n"


def _invalid_certificate(monkeypatch):
    monkeypatch.setattr(cli.iss_mod, "iss_certificate",
                        lambda *args, **kwargs: IssCertificate(1.0, 1.0, 0.0, 1, 0.5))
    return "analysis.certificate = true\n", 4, \
        "certification failure: certificate max violation 0.5 exceeds 1e-06\n"


@pytest.mark.parametrize("judged", [_refuting_map, _invalid_certificate],
                         ids=["refuted_axiom", "invalid_certificate"])
def test_cli_run_fails_on_what_it_wrote(tmp_path, capsys, monkeypatch, judged):
    # as `axioms` and `certify` do, but after every artifact is written
    extra, code, message = judged(monkeypatch)
    out = tmp_path / "judged_out"
    assert main(["run", str(write_config(tmp_path, MINIMAL.format(out=out) + extra))]) \
        == code
    assert capsys.readouterr().err == message
    listed = [line.split(" ", 1)[1] for line in
              (out / "manifest.txt").read_text().splitlines() if line.startswith("file ")]
    assert sorted(listed) == sorted(os.listdir(out)) and len(listed) == 3


def test_cli_axioms_names_what_refuted_the_map(capsys, monkeypatch):
    # the report on stdout, and on stderr the entry `satiss run` names
    _, code, message = _refuting_map(monkeypatch)
    assert main(["axioms", "pointwise", "1.0", "--samples", "50"]) == code
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out.startswith("kind=pointwise_linf\nlevel=1\nbound_violations=0\n")
    assert captured.out.endswith("\nsamples_used=50\n")


@pytest.mark.parametrize("level, message", [
    ("1e308", "shift-bound constant C0 must be positive and finite"),
    ("1e300", "case-1 constant rho = inf is not finite"),
])
def test_cli_v1_constants_must_be_finite(tmp_path, capsys, level, message):
    # the V1 report would read rho=inf (and alpha=nan at 1e308) with exit 0
    body = MINIMAL.format(out=tmp_path / "v1_out").replace(
        "time.T = 0.001", "time.T = 0.01").replace(
        "saturation.kind = pointwise_linf", "saturation.kind = hilbert_norm") + (
        "saturation.level = %s\nanalysis.dissipation = v1\n" % level)
    assert main(["run", str(write_config(tmp_path, body))]) == 2
    assert "config error: " + message in capsys.readouterr().err
    assert not (tmp_path / "v1_out" / "dissipation_v1_summary.txt").exists()


@pytest.mark.parametrize("horizon, extra, message", [
    ("inf", "", "field 'time.T' must be positive and finite"),
    ("0.001", "rng_seed = -1\ninitial.family = smooth_random\n",
     "field 'rng_seed' must be non-negative"),
    ("0.001", "rng_seed = -1\nanalysis.certificate = true\ncertificate.members = 1\n",
     "field 'rng_seed' must be non-negative"),
    ("0.001", "analysis.semiglobal_r = 1.0\nanalysis.semiglobal_samples = 0\n",
     "field 'analysis.semiglobal_samples' must be >= 1"),
    ("0.001", "initial.family = smooth_random\ninitial.graph_norm = inf\n",
     "field 'initial.graph_norm' must be finite"),
    ("0.001", "initial.amplitude = nan\n", "field 'initial.amplitude' must be finite"),
    ("0.001", "analysis.semiglobal_r = 1.0, inf\n",
     "field 'analysis.semiglobal_r' must be finite"),
    ("0.001", "disturbance.kind = cosine\ndisturbance.amplitude = inf\n",
     "field 'disturbance.amplitude' must be finite"),
    ("0.001", "disturbance.kind = cosine\ndisturbance.amplitude = 0.05\n"
     "disturbance.frequency = nan\n", "field 'disturbance.frequency' must be finite"),
    ("0.001", "analysis.certificate = true\ncertificate.members = 4\n"
     "certificate.rho_cap = nan\n", "field 'certificate.rho_cap' must be finite"),
    ("0.001", "analysis.certificate = true\ncertificate.members = 4\n"
     "certificate.rho_cap = -1\n",
     "field 'certificate.rho_cap' must be non-negative or none"),
    ("0.01", "initial.amplitude = 1e308\n",
     "field 'initial.amplitude' = 1e+308 overflows the one_minus_cosine profile"),
    ("1e9", "", "T / dt = 1e+12 steps: their per-step series cannot be allocated"),
    ("1e17", "", "T / dt = 1e+20 steps: their per-step series cannot be allocated"),
    ("1e300", "", "T / dt = 1e+303 steps: their per-step series cannot be allocated"),
], ids=["infinite_horizon", "negative_seed_initial", "negative_seed_certificate",
        "semiglobal_without_samples", "infinite_graph_norm", "nan_amplitude",
        "infinite_semiglobal_radius", "infinite_disturbance_amplitude",
        "nan_disturbance_frequency", "nan_rho_cap", "negative_rho_cap",
        "overflowing_amplitude", "unallocatable_horizon", "horizon_past_index_range",
        "horizon_near_double_range"])
def test_cli_unusable_input_is_config_error(tmp_path, capsys, horizon, extra, message):
    # neither a traceback (math.ceil, default_rng, a non-finite state, an
    # array too large for memory or for an index) nor a warning, nor a
    # report of NaN, a divergence or a cap no run can meet
    body = MINIMAL.format(out=tmp_path / "bad_out").replace(
        "time.T = 0.001", "time.T = " + horizon) + extra
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(write_config(tmp_path, body))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message) and err.count("\n") == 1
    assert not (tmp_path / "bad_out").exists()


@pytest.mark.parametrize("extra, message", [
    ("analysis.certificate = true\ncertificate.members = 0\n",
     "field 'certificate.members' must be >= 1"),
    ("analysis.semiglobal_r = 1.0\nanalysis.semiglobal_samples = 0\n",
     "field 'analysis.semiglobal_samples' must be >= 1"),
    ("analysis.axioms = true\nanalysis.axioms_samples = 0\n",
     "field 'analysis.axioms_samples' must be >= 1"),
    ("initial.family = smooth_random\ninitial.graph_norm = 0\n",
     "field 'initial.graph_norm' must be positive"),
    ("analysis.safety = 0.5\n", "line 8: unknown field 'analysis.safety'"),
    ("analysis.axioms_amplitude = 3.0\n",
     "line 8: unknown field 'analysis.axioms_amplitude'"),
], ids=["no_certificate_members", "no_semiglobal_samples", "no_axiom_samples",
        "zero_graph_norm", "deleted_safety", "deleted_axioms_amplitude"])
def test_cli_out_of_range_field_writes_nothing(tmp_path, capsys, extra, message):
    # each value is refused by its schema row, and a key without a row (the
    # settings that only ever took one value have none), before the output
    # directory is made: no trajectory.csv without its manifest
    out = tmp_path / "range_out"
    body = MINIMAL.format(out=out) + extra
    assert main(["run", str(write_config(tmp_path, body))]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % message
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize("kind, extra, message", [
    ("none", "analysis.axioms = true\n",
     "field 'analysis.axioms' needs a saturation map (field 'saturation.kind' is 'none')"),
    ("pointwise_linf", "analysis.axioms = true\nsaturation.level = 1e300\n",
     "field 'saturation.level': sample amplitude 3e+300 overflows the sums "
     "of the sweep on 31 nodes"),
    ("none", "analysis.dissipation = v1\n",
     "field 'analysis.dissipation' needs a saturation map "
     "(field 'saturation.kind' is 'none')"),
    ("pointwise_linf", "analysis.dissipation = v2\ninitial.family = zero\n",
     "field 'analysis.dissipation' = v2 needs a nonzero initial state "
     "(field 'initial.family' makes it zero)"),
    ("pointwise_linf", "analysis.dissipation = v2\ninitial.amplitude = 0\n",
     "field 'analysis.dissipation' = v2 needs a nonzero initial state "
     "(field 'initial.amplitude' makes it zero)"),
    ("pointwise_linf", "analysis.dissipation = v2\ninitial.family = sine_mode\n"
     "initial.mode = 0\n",
     "field 'analysis.dissipation' = v2 needs a nonzero initial state "
     "(field 'initial.mode' makes it zero)"),
], ids=["axioms_without_saturation", "overflowing_axiom_amplitude",
        "v1_without_saturation", "v2_zero_family", "v2_zero_amplitude",
        "v2_zero_mode"])
def test_cli_two_field_rule_makes_no_output_dir(tmp_path, capsys, kind, extra, message):
    # rules that compare two fields are checked with the schema rows, before
    # the output directory is made
    out = tmp_path / "rule_out"
    body = MINIMAL.format(out=out).replace("pointwise_linf", kind) + extra
    assert main(["run", str(write_config(tmp_path, body))]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % message
    assert not out.exists()


def test_cli_v2_with_underflowing_initial_state_makes_no_output_dir(tmp_path, capsys):
    # a nonzero amplitude whose state has a graph norm of 0 is refused after
    # the state is built, and the output directory made for it is removed
    out = tmp_path / "v2_out"
    body = MINIMAL.format(out=out) + ("analysis.dissipation = v2\n"
                                      "initial.amplitude = 1e-320\n")
    assert main(["run", str(write_config(tmp_path, body))]) == 2
    assert capsys.readouterr().err == ("config error: analysis.dissipation = v2 needs "
                                       "a nonzero initial state\n")
    assert not out.exists()


def test_cli_axioms_negative_seed_is_config_error(capsys):
    assert main(["axioms", "hilbert", "1.0", "--samples", "3", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: --seed must be non-negative\n"
    assert captured.out == ""


def test_cli_axioms_verb(capsys):
    assert main(["axioms", "pointwise", "1.0", "--samples", "200"]) == 0
    out = capsys.readouterr().out
    assert "bound_violations=0" in out
    assert main(["axioms", "hilbert_norm", "1.0", "--samples", "200"]) == 0
    assert main(["axioms", "unknown_kind", "1.0"]) == 2


def test_cli_figure1_verb(tmp_path):
    assert main(["figure1", str(tmp_path / "fig")]) == 0
    assert (tmp_path / "fig" / "figure1_norms.csv").exists()


def test_cli_certify_verb(tmp_path, capsys):
    body = """
domain.L = 6.283185307179586
domain.n_interior = 63
time.T = 2.0
time.dt = 0.001
saturation.kind = pointwise_linf
certificate.members = 4
output_dir = {out}
""".format(out=tmp_path / "cert")
    cfg_path = write_config(tmp_path, body, name="cert.cfg")
    assert main(["certify", str(cfg_path)]) == 0
    text = (tmp_path / "cert" / "certificate.txt").read_text()
    assert "valid=true" in text
    assert "rho_gain=" in text


def test_run_with_analyses(tmp_path):
    body = """
domain.L = 6.283185307179586
domain.n_interior = 63
time.T = 1.0
time.dt = 0.001
initial.family = one_minus_cosine
disturbance.kind = cosine
disturbance.amplitude = 0.05
saturation.kind = hilbert_norm
analysis.dissipation = v1
analysis.gap = true
output.states = true
output_dir = {out}
""".format(out=tmp_path / "full")
    outdir, files = run_experiment(parse_config_text(body))
    expected = {"trajectory.csv", "states.csv", "dissipation_v1.csv",
                "dissipation_v1_summary.txt", "gap.csv", "manifest.txt"}
    assert set(files) == expected
    summary = (tmp_path / "full" / "dissipation_v1_summary.txt").read_text()
    assert "violation_count=0" in summary


# sha256 of semiglobal.txt and trajectory.csv of the run below, as written
# when the fit read one (times, norms, norm0) tuple per member; semiglobal.txt
# holds the same four values per radius, one key=value per line.  It was
# re-pinned when a batch member became its single run bit for bit: K, mu and
# lift moved in their last two or three digits, by at most 3.3e-15 (K = 1.54)
_SEMIGLOBAL_DIGESTS = {
    "semiglobal.txt": "f834c0dc3d8f34274bf09cb6f890bd31c113c58522859ca8c0494c1315e2c412",
    "trajectory.csv": "db35731c4432f86cb6d8e59229d9976d18eec7dc61e464139115699422ed142c",
}


def test_run_semiglobal_analysis(tmp_path):
    body = """
domain.L = 6.283185307179586
domain.n_interior = 63
time.T = 2.0
time.dt = 0.001
saturation.kind = pointwise_linf
analysis.semiglobal_r = 1.0, 2.0
analysis.semiglobal_samples = 2
output_dir = {out}
""".format(out=tmp_path / "semi")
    outdir, files = run_experiment(parse_config_text(body))
    text = (tmp_path / "semi" / "semiglobal.txt").read_text()
    assert text.count("r=") == 2
    assert "mu=" in text
    assert {name: hashlib.sha256((tmp_path / "semi" / name).read_bytes()).hexdigest()
            for name in ("semiglobal.txt", "trajectory.csv")} == _SEMIGLOBAL_DIGESTS


# sha256 of what `satiss certify` writes for the shipped certify.cfg at
# T = 0.5, as written when the certificate looped over per-member tuples;
# the manifest echoes the 25 keys of the schema.  certificate.txt was
# re-pinned when a batch member became its single run bit for bit: K, mu and
# rho_gain moved by at most 1.5e-14
_CERTIFY_DIGESTS = {
    "certificate.txt": "eca52eea302084dca0c034bb9d0ca885f3166216fc5fe2a6d3c191477faa3df6",
    "manifest.txt": "420e477cb81ffb9b48b88446199b08a8c1306ec30f11b2342041def5e099e28e",
}


def test_certify_artifacts_golden(tmp_path, capsys, monkeypatch):
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "configs", "certify.cfg")
    with open(path) as fh:
        shipped = fh.read()
    assert "\ntime.T = 9.0\n" in shipped
    cfg = write_config(tmp_path, shipped.replace("\ntime.T = 9.0\n", "\ntime.T = 0.5\n"))
    monkeypatch.setenv("SATISS_OUTPUT_ROOT", str(tmp_path))
    assert main(["certify", str(cfg)]) == 0
    out = tmp_path / "out_certify"
    assert capsys.readouterr().out == (out / "certificate.txt").read_text()
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in os.listdir(out)} == _CERTIFY_DIGESTS


@pytest.mark.parametrize("kind, level", [
    ("hilbert", "inf"), ("hilbert", "1e308"), ("pointwise", "1e300")])
def test_cli_axioms_overflowing_level_is_config_error(capsys, kind, level):
    # inf is not a level; at 1e308 and 1e300 the sweep amplitude 3 * level
    # overflows the sums of squares
    assert main(["axioms", kind, level, "--samples", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert captured.out == ""


# every key of the dissipation summaries of a short disturbed Hilbert run,
# as written before the report read the recorded series
_DISSIPATION_SUMMARIES = {
    "v": {"which": "V", "alpha": 1.0, "rho": 0.0, "violation_count": 501,
          "worst_margin": -2.976887627462208},
    "v1": {"which": "V1", "alpha": 1.012658062432076, "rho": 302.17504935978809,
           "violation_count": 0, "worst_margin": 29.367936998710146},
    "v2": {"which": "V2", "alpha": 2.0253161248641525, "rho": 0.0,
           "mu": 0.48219703866414043, "M_tilde": 0.82982090049964408,
           "r": 3.8564751292313866, "violation_count": 0,
           "worst_margin": 7.994168871190066},
}


# sha256 of trajectory.csv, dissipation_<which>.csv and
# dissipation_<which>_summary.txt of the same runs, as written when V1 and
# V2 were evaluated per state during the integration and the coefficients
# by free functions: the series computed from the recorded norms and the
# coefficients read from LyapunovParams reproduce them byte for byte (the V1
# summary without the three lines of its second, reported-only alpha)
_DISSIPATION_DIGESTS = {
    "v": ("dbb21a728b649f458395092f5374f67fc4cf0cff1c35d2b3d3a5be2091c41c3e",
          "d542b43612db1d6e49a9e2c801c1317d2bf6d7f117d6f4471dbe3933a202459f",
          "3008ff6b68b86ac563d3d72d6ea54643b9c5b3f202e1682294aff5a654bf7843"),
    "v1": ("04f9ef4bf89f5d2dcf41457690b7b305416c46e7910dc5b346b858108ae9d565",
           "f22a6685c6aa67f3b47058f1e5fd25c56cd116798c0d70eaf2a07ecf42b005e2",
           "da01780d983145ba74e98f99c8d735897ba85e191cabdbfc6483f12342550566"),
    "v2": ("486c7b18ac497b34b2f2516906ccb9f6f488f7f5859a5896a319945df9d75f7e",
           "b206dff0b6d14186b1ec8a58e7c2871ca059917a9b60d44a0be27c62e5eccf4f",
           "e645cb6cbd3735de0f43c075fd1cc3c6002e527f4da58bba1cd96da7bc41d38e"),
}


@pytest.mark.parametrize("which", sorted(_DISSIPATION_SUMMARIES))
def test_dissipation_summaries_golden(tmp_path, which):
    body = """
domain.L = 6.283185307179586
domain.n_interior = 63
time.T = 0.5
time.dt = 0.001
disturbance.kind = cosine
disturbance.amplitude = 0.05
saturation.kind = hilbert_norm
analysis.dissipation = {which}
output_dir = {out}
""".format(which=which, out=tmp_path / which)
    run_experiment(parse_config_text(body))
    text = (tmp_path / which / ("dissipation_%s_summary.txt" % which)).read_text()
    got = dict(line.split("=", 1) for line in text.splitlines())
    expected = _DISSIPATION_SUMMARIES[which]
    assert set(got) == set(expected)
    for key, value in expected.items():
        if isinstance(value, str):
            assert got[key] == value
        elif isinstance(value, int):
            assert int(got[key]) == value
        else:
            assert float(got[key]) == pytest.approx(value, rel=1e-12, abs=0.0)
    digests = tuple(hashlib.sha256((tmp_path / which / name).read_bytes()).hexdigest()
                    for name in ("trajectory.csv", "dissipation_%s.csv" % which,
                                 "dissipation_%s_summary.txt" % which))
    assert digests == _DISSIPATION_DIGESTS[which]
