"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS lines; any assertion failure marks the criterion FAIL.
"""
import math
import time

import numpy as np
import pytest
import sympy

from satiss import DisturbanceSignal, Grid, SaturatedSystem, StateVector, \
    brs_check, build_kdv_operator, case1_params, case2_params, check_axioms, \
    dissipation_report, estimate_embedding_constant, fit_semiglobal, globalize, \
    gronwall_gap, hilbert_norm_map, iss_certificate, norm_l2, pointwise_linf_map, \
    simulate, smooth_initial_data, trajectory_observers
from satiss.cli import reproduce_figure1
from satiss.system import dissipativity_gate

from conftest import L


def report(number, name, elapsed, cap, detail=""):
    print("ACCEPTANCE %d (%s): PASS in %.1fs (cap %ds)%s"
          % (number, name, elapsed, cap, "  " + detail if detail else ""))


def test_criterion_1_saturation_axiom_suite(grid127):
    start = time.perf_counter()
    pointwise = pointwise_linf_map(1.0, L)
    rp = check_axioms(pointwise, grid127, 10000, 3.0, rng_seed=0)
    assert rp.bound_violations == 0
    assert rp.monotonicity_violations == 0
    assert rp.lipschitz_estimate <= 1.0 + 1e-12
    assert rp.item4_max_residual <= 1e-10
    assert rp.item5_C0_estimate <= pointwise.item5_C0 + 1e-10

    hilbert = hilbert_norm_map(1.0)
    rh = check_axioms(hilbert, grid127, 10000, 3.0, rng_seed=0)
    assert rh.bound_violations == 0
    assert rh.monotonicity_violations == 0
    assert rh.lipschitz_estimate <= 3.0
    assert rh.item4_max_residual <= 1e-10
    assert rh.item5_C0_estimate <= hilbert.item5_C0 + 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, "saturation axiom suite", elapsed, 10,
           "lipschitz %.3f / %.3f" % (rp.lipschitz_estimate, rh.lipschitz_estimate))


def test_criterion_2_dissipativity_gate_and_consistency():
    start = time.perf_counter()
    for n in (64, 128, 256):
        A = build_kdv_operator(Grid(L, n))
        assert dissipativity_gate(A) is A and A.max_symmetric_eigenvalue < 0.0

    xs = sympy.symbols("x")
    f = xs**4 * (L - xs) ** 4 * sympy.sin(xs)
    image = -sympy.diff(f, xs) - sympy.diff(f, xs, 3)
    f_np = sympy.lambdify(xs, f, "numpy")
    image_np = sympy.lambdify(xs, image, "numpy")
    errors = []
    for n in (128, 256, 512):
        g = Grid(L, n)
        A = build_kdv_operator(g)
        x = g.interior_nodes()
        errors.append(float(np.max(np.abs(A @ f_np(x) - image_np(x)))))
    ratio_1 = errors[0] / errors[1]
    ratio_2 = errors[1] / errors[2]
    assert ratio_1 >= 1.8
    assert ratio_2 >= 1.8
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, "dissipativity gate + first-order consistency", elapsed, 30,
           "ratios %.2f, %.2f" % (ratio_1, ratio_2))


def test_criterion_3_linear_closed_loop_decay(kdv127, z0_cosine):
    start = time.perf_counter()
    sys_lin = SaturatedSystem(kdv127, None, DisturbanceSignal())
    traj = simulate(sys_lin, z0_cosine, 9.0, 1e-3)
    norms = traj.observables["norm_l2"]
    bound = np.exp(-traj.times) * norms[0] ** 2
    assert np.all(norms**2 <= bound * (1.0 + 1e-6))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, "linear closed-loop decay", elapsed, 5,
           "norm(T)^2 / bound(T) = %.2e" % (norms[-1] ** 2 / bound[-1]))


def test_criterion_4_case1_decrease(kdv127, decay_C, z0_cosine):
    start = time.perf_counter()
    sigma = hilbert_norm_map(1.0)
    params = case1_params(decay_C, sigma)
    assert params.M == 2.0
    assert params.alpha > 0.0

    sys_sat = SaturatedSystem(kdv127, sigma, DisturbanceSignal(0.05, 1.0))
    traj = simulate(sys_sat, z0_cosine, 9.0, 1e-3)
    traj.observables.update((name, series(traj)) for name, series
                            in trajectory_observers(params).items())
    rep = dissipation_report(traj, "V1", params.alpha, params.rho)
    assert rep.violation_count == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, "case-1 decrease of the cubic-augmented function", elapsed, 10,
           "worst margin %.3g" % rep.worst_margin)


def test_criterion_5_case2_semiglobal_decay(kdv127, decay_C, grid127):
    start = time.perf_counter()
    c_s = estimate_embedding_constant(grid127, n_samples=400, rng_seed=11)
    sigma = pointwise_linf_map(1.0, L)
    sys_sat = SaturatedSystem(kdv127, sigma, DisturbanceSignal())
    worst_ratio = 0.0
    for ir, r in enumerate((0.5, 1.0, 2.0, 4.0)):
        params = case2_params(decay_C, c_s, r)
        for j in range(5):
            rng = np.random.default_rng((2024, ir, j))
            target = r if j == 0 else r * rng.uniform(0.4, 1.0)
            z0 = smooth_initial_data(grid127, kdv127, target, rng)
            traj = simulate(sys_sat, z0, 6.0, 1e-3)
            v2s = trajectory_observers(params)["V2"](traj)
            # decays along the trajectory
            assert np.max(np.diff(v2s)) <= 1e-9 * (1.0 + v2s[0])
            # certified envelope honored with 1e-4 slack
            ratio = float(np.max(v2s / (np.exp(-params.mu * traj.times) * v2s[0])))
            worst_ratio = max(worst_ratio, ratio)
            assert ratio <= 1.0 + 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, "case-2 semi-global decay", elapsed, 60,
           "c_S %.3f, worst envelope ratio %.6f" % (c_s, worst_ratio))


def test_criterion_6_gap_bound(kdv127, grid127):
    start = time.perf_counter()
    for i in range(10):
        rng = np.random.default_rng((600, i))
        sigma = pointwise_linf_map(1.0, L) if rng.random() < 0.5 \
            else hilbert_norm_map(1.0)
        z0 = smooth_initial_data(grid127, kdv127, rng.uniform(1.0, 4.0), rng)
        d = DisturbanceSignal(rng.uniform(0.01, 0.1), rng.uniform(0.5, 3.0))
        sys_sat = SaturatedSystem(kdv127, sigma, DisturbanceSignal())
        gap = gronwall_gap(sys_sat, z0, d, 4.0, 1e-3)
        assert gap.conservative_violations == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(6, "disturbance gap bound", elapsed, 60,
           "no convolution-bound violation in 10 configs")


def test_criterion_7_globalization(kdv127, grid127):
    start = time.perf_counter()
    sys_sat = SaturatedSystem(kdv127, pointwise_linf_map(1.0, L),
                              DisturbanceSignal())
    fit = fit_semiglobal(sys_sat, [1.0, 2.0, 4.0], 5, 9.0, 1e-3, 777)
    details = []
    for r in (2.0, 4.0):
        T_r, K_g, mu_g = globalize(fit, r)
        for times, norms, n0 in fit.ensembles[r]:
            assert n0 <= r
            idx = int(np.searchsorted(times, T_r, side="left"))
            assert norms[idx] <= 1.0 * (1.0 + 1e-3)
        details.append("T_%g=%.3f" % (r, T_r))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, "globalization hand-off", elapsed, 60, ", ".join(details))


def test_criterion_8_figure1_reproduction(tmp_path):
    start = time.perf_counter()
    outdir, files = reproduce_figure1(str(tmp_path / "fig1"))
    assert len(files) == 4
    rows = np.loadtxt(tmp_path / "fig1" / "figure1_norms.csv",
                      delimiter=",", skiprows=1)
    t, disturbed, linear = rows[:, 0], rows[:, 1], rows[:, 2]

    # reachable-set bound: sup ||z|| <= ||z0|| + sqrt(C0 ||d||)
    C0 = math.sqrt(L)
    h_n = L * 127.0 / 128.0
    d_energy = math.sqrt(0.05**2 * h_n * (9.0 / 2.0 + math.sin(18.0) / 4.0))
    assert disturbed.max() <= disturbed[0] + math.sqrt(C0 * d_energy) + 1e-9

    # blue/red ordering: linear trace below the disturbed one for t >= t0
    above = np.nonzero(linear > disturbed)[0]
    t0_index = 0 if len(above) == 0 else int(above[-1]) + 1
    assert t[t0_index] <= 0.9 * t[-1]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(8, "disturbed vs linear norm traces", elapsed, 10,
           "sup %.3f vs bound %.3f, ordering from t0 = %.3f"
           % (disturbed.max(), disturbed[0] + math.sqrt(C0 * d_energy), t[t0_index]))


def test_criterion_9_iss_certificate(kdv127, grid127):
    start = time.perf_counter()
    sys_sat = SaturatedSystem(kdv127, pointwise_linf_map(1.0, L),
                              DisturbanceSignal())
    targets = np.linspace(0.5, 5.0, 20)
    d_amps = [0.0, 0.0, 0.02, 0.05, 0.1]
    d_freqs = [1.0, 0.7, 1.9]
    z0s, ds = [], []
    for i in range(20):
        rng = np.random.default_rng((900, i))
        z0s.append(smooth_initial_data(grid127, kdv127, targets[i], rng))
        amp = d_amps[i % 5]
        ds.append(DisturbanceSignal() if amp == 0.0
                  else DisturbanceSignal(amp, d_freqs[i % 3]))
    cert = iss_certificate(sys_sat, z0s, ds, 9.0, 1e-3)
    assert cert.ensemble_size == 20
    assert cert.max_violation <= 1e-6
    assert cert.valid()
    # the disturbed-saturated reference run is covered by the reachability
    # bound carried by the saturation constants
    x = grid127.interior_nodes()
    traj = simulate(SaturatedSystem(kdv127, pointwise_linf_map(1.0, L),
                                    DisturbanceSignal(0.05, 1.0)),
                    StateVector(grid127, 1.0 - np.cos(x)), 9.0, 1e-3)
    ok, _ = brs_check(traj, pointwise_linf_map(1.0, L).item5_C0)
    assert ok
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(9, "ensemble ISS certificate", elapsed, 120,
           "K %.3f, mu %.3f, rho %.3f, max violation %.2e"
           % (cert.K, cert.mu, cert.rho_gain, cert.max_violation))
