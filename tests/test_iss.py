import math
import os
from dataclasses import replace

import numpy as np
import pytest

from satiss import CertificationError, Grid, ParameterError, StateVector, \
    assemble_closed_loop, brs_check, build_kdv_operator, cli, iss, system, cosine_disturbance, fit_semiglobal, \
    globalize, gronwall_gap, hilbert_norm_map, iss_certificate, norm_graph, \
    norm_l2, pointwise_linf_map, simulate, smooth_initial_data, zero_disturbance
from satiss.iss import SemiGlobalFit, _majorizing_exponential_fit

from conftest import L


def test_smooth_initial_data_normalization(grid127, kdv127):
    rng = np.random.default_rng(3)
    for target in (0.5, 1.0, 4.0):
        z = smooth_initial_data(grid127, kdv127, target, rng)
        assert norm_graph(z, kdv127) == pytest.approx(target, rel=1e-9)
        assert norm_l2(z) <= target
    with pytest.raises(ParameterError):
        smooth_initial_data(grid127, kdv127, 0.0, rng)


def test_gronwall_gap_zero_disturbance(kdv127, z0_cosine):
    sys_sat = assemble_closed_loop(kdv127, hilbert_norm_map(1.0), zero_disturbance())
    report = gronwall_gap(sys_sat, z0_cosine, zero_disturbance(), 0.5, 1e-3)
    assert np.all(report.gap == 0.0)
    assert np.all(report.plain_bound == 0.0)
    assert np.all(report.conservative_bound == 0.0)
    assert report.plain_bound_violations == 0
    assert report.conservative_violations == 0


def test_gronwall_gap_disturbed(kdv127, z0_cosine):
    sys_sat = assemble_closed_loop(kdv127, hilbert_norm_map(1.0), zero_disturbance())
    report = gronwall_gap(sys_sat, z0_cosine, cosine_disturbance(0.05, 1.0), 3.0, 1e-3)
    assert report.conservative_violations == 0
    assert np.all(report.conservative_bound >= report.plain_bound - 1e-12)
    assert isinstance(report.plain_bound_violations, int)
    assert report.plain_bound_violations >= 0
    assert np.max(report.gap) > 0.0


def test_gap_report_csv(tmp_path, kdv127, z0_cosine):
    sys_sat = assemble_closed_loop(kdv127, pointwise_linf_map(1.0, L),
                                   zero_disturbance())
    report = gronwall_gap(sys_sat, z0_cosine, cosine_disturbance(0.02, 1.0),
                          0.05, 1e-2)
    path = tmp_path / "gap.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,gap,paper_bound,conservative_bound"
    assert len(lines) == len(report.times) + 1


def test_majorizing_fit_majorizes():
    times = np.linspace(0.0, 5.0, 200)
    norm0 = np.array([2.0, 1.0, 0.5])
    rates = np.array([1.0, 1.3, 0.9])
    rows = norm0[:, None] * np.exp(-rates[:, None] * times) * (1.0 + 0.05 * np.sin(7 * times))
    K, mu, lift = _majorizing_exponential_fit(times, rows, norm0)
    assert K >= 1.0
    assert mu > 0.0
    assert lift >= 0.0
    for norms, n0 in zip(rows, norm0):
        assert np.all(norms <= K * np.exp(-mu * times) * n0 * (1.0 + 1e-9))


def test_majorizing_fit_flags_growth():
    times = np.linspace(0.0, 5.0, 100)
    K, mu, lift = _majorizing_exponential_fit(times, np.exp(0.5 * times)[None],
                                              np.array([1.0]))
    assert math.isnan(mu)


def test_fit_semiglobal_requires_undisturbed(kdv127):
    sigma = pointwise_linf_map(1.0, L)
    sys_dist = assemble_closed_loop(kdv127, sigma, cosine_disturbance(0.05, 1.0))
    with pytest.raises(ParameterError, match="undisturbed"):
        fit_semiglobal(sys_dist, [1.0], 2, 1.0, 1e-3, 0)
    sys_free = assemble_closed_loop(kdv127, sigma, zero_disturbance())
    with pytest.raises(ParameterError):
        fit_semiglobal(sys_free, [], 2, 1.0, 1e-3, 0)
    # a cosine of amplitude 0 is the zero disturbance
    for d in (zero_disturbance(), cosine_disturbance(0.0, 3.0)):
        fit = fit_semiglobal(assemble_closed_loop(kdv127, sigma, d), [1.0], 1,
                             0.01, 1e-3, 0)
        assert fit.mu_of_r.shape == (1,)


def test_fit_semiglobal_linear_rate_radius_independent(kdv127):
    sys_lin = assemble_closed_loop(kdv127, None, zero_disturbance())
    fit = fit_semiglobal(sys_lin, [0.5, 2.0, 8.0], 3, 5.0, 1e-3, 321)
    mus = fit.mu_of_r
    assert np.all(np.isfinite(mus))
    assert (mus.max() - mus.min()) <= 0.05 * mus.min()


def test_fit_semiglobal_saturated_rate_nonincreasing(kdv127):
    # graph-norm-r smooth data only saturates appreciably once r is large,
    # so the radius sweep reaches into that regime; consecutive rates carry
    # a fit-noise slack while the overall drop must be genuine
    sys_sat = assemble_closed_loop(kdv127, pointwise_linf_map(1.0, L),
                                   zero_disturbance())
    fit = fit_semiglobal(sys_sat, [0.5, 1.0, 2.0, 4.0, 8.0, 32.0], 4, 5.0, 1e-3, 321)
    mus = fit.mu_of_r
    assert np.all(np.isfinite(mus))
    assert np.all(np.diff(mus) <= 0.12 * mus[:-1])
    assert mus[-1] <= 0.9 * mus[0]
    # every fitted envelope majorizes its own ensemble
    for i, r in enumerate(fit.r_values):
        K, mu = fit.K_of_r[i], fit.mu_of_r[i]
        for times, norms, n0 in fit.ensembles[float(r)]:
            assert np.all(norms <= K * np.exp(-mu * times) * n0 * (1.0 + 1e-6))


def test_globalize_formula_and_clamp():
    times = np.linspace(0.0, 10.0, 50)
    low = 0.5 * np.exp(-times)
    fit = SemiGlobalFit(
        r_values=np.array([1.0, 4.0]),
        K_of_r=np.array([1.0, 2.0]),
        mu_of_r=np.array([1.0, 0.5]),
        fit_residuals=np.zeros(2),
        ensembles={1.0: [(times, low, 0.5)], 4.0: [(times, low, 0.5)]},
    )
    T_r, K_g, mu_g = globalize(fit, 4.0)
    assert T_r == pytest.approx(math.log(8.0) / 0.5, rel=1e-12)
    assert mu_g == 1.0
    assert K_g == pytest.approx(math.exp(T_r), rel=1e-12)
    # hand-off consistency: the composed bound at T_r equals K_1
    assert K_g * math.exp(-mu_g * T_r) == pytest.approx(1.0, rel=1e-12)

    # r K_r <= 1 clamps the hand-off time to 0
    T_r, K_g, mu_g = globalize(fit, 1.0)
    assert T_r == 0.0
    assert K_g == 1.0


def test_globalize_requires_fitted_radii():
    times = np.linspace(0.0, 1.0, 5)
    fit = SemiGlobalFit(np.array([2.0]), np.array([1.0]), np.array([1.0]),
                        np.zeros(1), {2.0: [(times, np.ones(5), 1.0)]})
    with pytest.raises(ParameterError):
        globalize(fit, 2.0)  # no unit-radius reference


def test_fit_at_matches_radii_relatively():
    # an absolute tolerance of 1e-8 would match 5e-9 to the radius 1e-9
    times = np.linspace(0.0, 1.0, 5)
    fit = SemiGlobalFit(np.array([1e-9, 5e-9]), np.array([1.0, 2.0]), np.array([3.0, 4.0]),
                        np.zeros(2), {r: [(times, np.ones(5), 1.0)] for r in (1e-9, 5e-9)})
    assert fit.at(5e-9) == (5e-9, 2.0, 4.0)
    assert fit.at(1e-9 * (1.0 + 1e-12)) == (1e-9, 1.0, 3.0)
    with pytest.raises(ParameterError):
        fit.at(3e-9)


def test_globalize_on_fitted_ensembles(kdv127):
    sys_sat = assemble_closed_loop(kdv127, pointwise_linf_map(1.0, L),
                                   zero_disturbance())
    fit = fit_semiglobal(sys_sat, [1.0, 2.0], 3, 8.0, 1e-3, 123)
    T_r, K_g, mu_g = globalize(fit, 2.0)
    # a radius that np.isclose matches to 2.0 reads the fitted one's ensemble
    assert globalize(fit, 2.0 + 1e-12) == (T_r, K_g, mu_g)
    assert T_r < 8.0
    assert K_g >= 1.0
    # composed envelope majorizes the tails of the stored ensemble
    for times, norms, n0 in fit.ensembles[2.0]:
        mask = times >= T_r
        bound = K_g * np.exp(-mu_g * times[mask]) * n0
        assert np.all(norms[mask] <= bound * (1.0 + 1e-6))


def test_certificate_all_undisturbed(kdv127, grid127):
    sys_sat = assemble_closed_loop(kdv127, pointwise_linf_map(1.0, L),
                                   zero_disturbance())
    rng = np.random.default_rng(1)
    z0s = [smooth_initial_data(grid127, kdv127, t, rng) for t in (0.5, 1.0, 2.0)]
    ds = [zero_disturbance()] * 3
    cert = iss_certificate(sys_sat, z0s, ds, 4.0, 1e-3)
    assert cert.rho_gain == 0.0
    assert cert.ensemble_size == 3
    assert cert.valid()


def test_certificate_all_zero_initial_state(kdv127, grid127):
    sys_sat = assemble_closed_loop(kdv127, pointwise_linf_map(1.0, L),
                                   zero_disturbance())
    zero = StateVector(grid127, np.zeros(127))
    ds = [cosine_disturbance(a, 1.0) for a in (0.02, 0.05)]
    cert = iss_certificate(sys_sat, [zero, zero], ds, 3.0, 1e-3)
    assert cert.valid()
    assert cert.rho_gain > 0.0


def test_certificate_monotone_gain_on_nested_ensembles(kdv127, grid127):
    sys_sat = assemble_closed_loop(kdv127, pointwise_linf_map(1.0, L),
                                   zero_disturbance())
    rng = np.random.default_rng(8)
    core_z = [smooth_initial_data(grid127, kdv127, 1.0, rng) for _ in range(2)]
    core_d = [zero_disturbance(), cosine_disturbance(0.03, 1.0)]
    extra_z = core_z + [smooth_initial_data(grid127, kdv127, 2.0, rng)]
    extra_d = core_d + [cosine_disturbance(0.1, 0.7)]
    small = iss_certificate(sys_sat, core_z, core_d, 3.0, 1e-3)
    large = iss_certificate(sys_sat, extra_z, extra_d, 3.0, 1e-3)
    assert large.rho_gain >= small.rho_gain - 1e-12
    assert small.valid() and large.valid()


def test_certificate_gain_cap(kdv127, grid127):
    sys_sat = assemble_closed_loop(kdv127, pointwise_linf_map(1.0, L),
                                   zero_disturbance())
    zero = StateVector(grid127, np.zeros(127))
    with pytest.raises(CertificationError):
        iss_certificate(sys_sat, [zero], [cosine_disturbance(0.05, 1.0)],
                        2.0, 1e-3, rho_cap=1e-9)


def test_certificate_gain_cap_names_the_worst_member(kdv127, grid127):
    # the envelope of the undisturbed member and the gain of each disturbed
    # one, worked out from single-member runs: the middle member needs the
    # larger gain, and a cap at the smaller one fails on it
    loop = assemble_closed_loop(kdv127, pointwise_linf_map(1.0, L))
    z0s = [smooth_initial_data(grid127, kdv127, r, np.random.default_rng(i))
           for i, r in enumerate((0.3, 2.0, 0.5))]
    ds = [cosine_disturbance(0.05, 0.7), cosine_disturbance(0.1, 1.9), zero_disturbance()]
    T, dt = 2.0, 1e-3
    runs = [simulate(replace(loop, d=d), z0, T, dt) for d, z0 in zip(ds, z0s)]
    times, free = runs[2].times, runs[2].observables["norm_l2"]
    K, mu, _ = _majorizing_exponential_fit(times, free[None], free[:1])
    gains = []
    for run in runs[:2]:
        norms = run.observables["norm_l2"]
        energy = math.sqrt(np.trapezoid(run.observables["norm_d"] ** 2, times))
        gains.append(np.max(norms - K * np.exp(-mu * times) * norms[0]) / energy)
    worst = int(np.argmax(gains))
    assert 0 < min(gains) < 0.9 * max(gains)
    with pytest.raises(CertificationError,
                       match=r"\(worst member index %d\)$" % worst) as info:
        iss_certificate(loop, z0s, ds, T, dt, rho_cap=min(gains))
    assert float(str(info.value).split()[2]) == pytest.approx(max(gains), rel=1e-5)


def test_certificate_rejects_bad_ensembles(kdv127, grid127):
    sys_sat = assemble_closed_loop(kdv127, pointwise_linf_map(1.0, L),
                                   zero_disturbance())
    zero = StateVector(grid127, np.zeros(127))
    with pytest.raises(ParameterError):
        iss_certificate(sys_sat, [], [], 1.0, 1e-3)
    with pytest.raises(ParameterError):
        iss_certificate(sys_sat, [zero], [], 1.0, 1e-3)


def test_certificate_kv_text(kdv127, grid127):
    sys_sat = assemble_closed_loop(kdv127, pointwise_linf_map(1.0, L),
                                   zero_disturbance())
    rng = np.random.default_rng(2)
    cert = iss_certificate(sys_sat, [smooth_initial_data(grid127, kdv127, 1.0, rng)],
                           [zero_disturbance()], 1.0, 1e-3)
    text = cert.as_kv_text()
    keys = {line.split("=", 1)[0] for line in text.strip().splitlines()}
    assert keys == {"K", "mu", "rho_gain", "ensemble_size", "max_violation", "valid"}


def test_brs_check_contraction_and_adversarial(kdv127, grid127, z0_cosine):
    sigma = pointwise_linf_map(1.0, L)
    sys_free = assemble_closed_loop(kdv127, sigma, zero_disturbance())
    traj = simulate(sys_free, z0_cosine, 2.0, 1e-3)
    ok, worst = brs_check(traj, sigma.item5_C0)
    assert ok
    assert worst >= -1e-8 * (1.0 + norm_l2(z0_cosine) ** 2)

    # growing from the origin under disturbance: an under-declared constant
    # must be caught
    sys_dist = assemble_closed_loop(kdv127, sigma, cosine_disturbance(0.05, 1.0))
    zero = StateVector(grid127, np.zeros(127))
    traj = simulate(sys_dist, zero, 2.0, 1e-3)
    ok, worst = brs_check(traj, 1e-9)
    assert not ok
    assert worst < 0.0


def test_iss_certificate_batch_matches_member_runs(monkeypatch):
    # the certify.cfg ensemble at T = 0.5: one batched integration against
    # one integration per member, through the same fit
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "configs",
                        "certify.cfg")
    config = cli.parse_config(path)
    config["time.T"] = 0.5
    grid = Grid(config["domain.L"], config["domain.n_interior"])
    A = build_kdv_operator(grid)
    loop = assemble_closed_loop(A, pointwise_linf_map(config["saturation.level"],
                                                      config["domain.L"]))
    batched = cli._run_certificate(config, loop, grid, A, 0.5, config["time.dt"])

    def one_by_one(systems, z0s, T, dt, **kwargs):
        runs = [system.simulate(s, z, T, dt, **kwargs) for s, z in zip(systems, z0s)]
        return system.Trajectory(runs[0].grid, runs[0].times, {
            c: np.array([run.observables[c] for run in runs]) for c in runs[0].observables})

    monkeypatch.setattr(iss, "simulate", one_by_one)
    single = cli._run_certificate(config, loop, grid, A, 0.5, config["time.dt"])
    assert batched.ensemble_size == single.ensemble_size == 20
    for name in ("K", "mu", "rho_gain"):
        assert getattr(batched, name) == pytest.approx(getattr(single, name),
                                                       rel=1e-12, abs=0.0)
    assert abs(batched.max_violation - single.max_violation) <= 1e-12
    assert batched.valid() and single.valid()
