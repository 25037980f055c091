import os
import warnings

import numpy as np
import pytest

from satiss import cli
from satiss.cli import main, parse_config_text, reproduce_figure1, run_experiment
from satiss.errors import ConfigError, SimulationDiverged

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


@pytest.mark.parametrize("states", [False, True])
def test_run_keeps_states_only_when_written(tmp_path, monkeypatch, states):
    # the gap report integrates its own twins and needs no stored history
    kept, real = [], cli.simulate

    def recording(*args, **kwargs):
        traj = real(*args, **kwargs)
        kept.append(traj.states is not None)
        return traj
    monkeypatch.setattr(cli, "simulate", recording)
    body = MINIMAL + "analysis.gap = true\noutput.states = %s\n" % str(states).lower()
    _, files = run_experiment(parse_config_text(body.format(out=tmp_path / "out")))
    assert kept == [states]
    assert ("states.csv" in files) == states and "gap.csv" in files


def test_output_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SATISS_OUTPUT_ROOT", str(tmp_path))
    cfg = parse_config_text(MINIMAL.format(out="nested/exp"))
    outdir, _ = run_experiment(cfg)
    assert outdir == os.path.join(str(tmp_path), "nested/exp")
    assert (tmp_path / "nested" / "exp" / "trajectory.csv").exists()


def test_figure1_artifacts_and_decay(tmp_path):
    outdir, files = reproduce_figure1(str(tmp_path / "fig"))
    assert sorted(files) == ["figure1_norms.csv", "figure1_observables.csv",
                             "figure1_states.csv", "manifest.txt"]
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
    assert "alpha_no_C0=" in summary


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
    "v1": {"which": "V1", "alpha": 1.012658062432076,
           "alpha_no_C0": 1.3502107499094351, "rho": 302.17504935978809,
           "violation_count": 0, "worst_margin": 29.367936998710146,
           "violation_count_no_C0": 0, "worst_margin_no_C0": 27.177897931566729},
    "v2": {"which": "V2", "alpha": 2.0253161248641525, "rho": 0.0,
           "mu": 0.48219703866414043, "M_tilde": 0.82982090049964408,
           "r": 3.8564751292313866, "violation_count": 0,
           "worst_margin": 7.994168871190066},
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
