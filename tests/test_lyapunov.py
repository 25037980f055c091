import math

import numpy as np
import pytest

from satiss import Grid, InfeasibleParameters, LyapunovParams, ParameterError, \
    StateVector, assemble_closed_loop, case1_decrease_coeff, case1_iss_gain, \
    case1_params, case2_decay_rate, case2_params, cosine_disturbance, \
    dissipation_report, estimate_embedding_constant, hilbert_norm_map, \
    measure_decay_constant, norm_graph, norm_l2, norm_linf, \
    select_param_case2, select_params_case1, simulate, trajectory_observers, \
    v1, v2, v_quadratic, zero_disturbance
from satiss.system import LinearOperator, Trajectory

from conftest import L, random_states


def unit_norm_state(grid):
    n, h = grid.n_interior, grid.spacing_h
    return StateVector(grid, np.full(n, 1.0 / math.sqrt(h * n)))


def test_v_quadratic_examples(grid127):
    zero = StateVector(grid127, np.zeros(127))
    assert v_quadratic(None, zero) == 0.0
    z = unit_norm_state(grid127)
    assert v_quadratic(None, z) == pytest.approx(norm_l2(z) ** 2, rel=1e-12)
    double = LinearOperator(grid127, 2.0 * np.eye(127))
    assert v_quadratic(double, z) == pytest.approx(2.0 * norm_l2(z) ** 2, rel=1e-12)


def test_v1_arithmetic(grid127):
    params = LyapunovParams(M=3.0)
    zero = StateVector(grid127, np.zeros(127))
    assert v1(params, zero) == 0.0
    z = unit_norm_state(grid127)
    assert v1(params, z) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ParameterError):
        v1(LyapunovParams(), z)


def test_v1_coercive_and_radially_unbounded(grid127):
    params = LyapunovParams(M=2.0)
    for z in random_states(grid127, 1000, seed=10):
        assert v1(params, z) >= norm_l2(z) ** 2 * (1.0 - 1e-12)
    z = unit_norm_state(grid127)
    values = [v1(params, StateVector(grid127, t * z.values)) for t in (10, 100, 1000)]
    assert values[0] < values[1] < values[2]


def test_v2_arithmetic_and_sandwich(grid127):
    params = LyapunovParams(M_tilde=3.0, r=2.0)
    zero = StateVector(grid127, np.zeros(127))
    assert v2(params, zero) == 0.0
    z = unit_norm_state(grid127)
    assert v2(params, z) == pytest.approx(7.0, rel=1e-12)
    with pytest.raises(ParameterError):
        v2(LyapunovParams(M_tilde=1.0), z)

    # sandwich with a non-identity diagonal weight
    diag = 1.0 + 0.5 * np.sin(Grid(L, 127).interior_nodes())
    P = LinearOperator(grid127, np.diag(diag))
    norm_P = float(np.max(diag))
    params = LyapunovParams(P=P, M_tilde=1.7, r=0.8)
    lo, hi = 1.7 * 0.8, norm_P + 1.7 * 0.8
    for z in random_states(grid127, 1000, seed=11):
        val = v2(params, z)
        nsq = norm_l2(z) ** 2
        assert lo * nsq * (1.0 - 1e-12) <= val <= hi * nsq * (1.0 + 1e-12)


def test_v1_v2_positive_definite(grid127):
    p1 = LyapunovParams(M=1.0)
    p2 = LyapunovParams(M_tilde=1.0, r=1.0)
    for z in random_states(grid127, 200, seed=12):
        assert v1(p1, z) > 0.0
        assert v2(p2, z) > 0.0


def test_weight_operator_validation(grid127):
    bad = np.eye(127)
    bad[0, 1] = 1.0  # not symmetric
    with pytest.raises(ParameterError):
        LyapunovParams(P=LinearOperator(grid127, bad))
    with pytest.raises(ParameterError):
        LyapunovParams(P=LinearOperator(grid127, -np.eye(127)))


def test_measure_decay_constant(grid127, kdv127, decay_C):
    minus_identity = LinearOperator(grid127, -np.eye(127))
    assert measure_decay_constant(minus_identity) == pytest.approx(2.0, rel=1e-12)
    # identity feedback shifts the spectrum by -1, so C is a bit above 2
    assert 1.9 <= decay_C <= 2.2


def test_select_params_case1_kdv_instance(decay_C):
    M, eps1, eps2 = select_params_case1(decay_C, 1.0, 1.0, C0=3.0, k=3.0, safety=0.5)
    assert M == 2.0
    # both constraint terms equal C/4 by construction at safety 1/2
    assert 2.0 * M * 3.0 / eps2 == pytest.approx(decay_C / 4.0, rel=1e-12)
    assert 1.0 / eps1 == pytest.approx(decay_C / 4.0, rel=1e-12)
    # admissibility holds on the output
    assert M >= 2.0
    assert 2.0 * M * 3.0 / eps2 + 1.0 / eps1 <= decay_C * (1.0 + 1e-12)
    alpha = case1_decrease_coeff(decay_C, M, eps1, eps2, 1.0, 1.0, 3.0)
    assert alpha == pytest.approx(0.5 * decay_C, rel=1e-12)
    assert case1_iss_gain(M, eps1, eps2, 3.0, 3.0) > 0.0


def test_select_params_case1_rejects_bad_inputs():
    with pytest.raises(InfeasibleParameters):
        select_params_case1(0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InfeasibleParameters):
        select_params_case1(-2.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        select_params_case1(2.0, 1.0, 1.0, 1.0, 1.0, safety=1.0)


def test_select_param_case2():
    assert select_param_case2(1.0, 1.0, 1.1) == pytest.approx(2.2, rel=1e-12)
    with pytest.raises(ParameterError):
        select_param_case2(1.0, 1.0, 1.0)
    # decay rate shrinks as the data radius grows
    rates = [case2_decay_rate(2.0, 1.0, 2.2, r) for r in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_embedding_ratio_scale_invariant(grid127, kdv127):
    rng = np.random.default_rng(3)
    from satiss import random_smooth_values
    v = random_smooth_values(grid127, rng, envelope=True)
    z = StateVector(grid127, v)
    z5 = StateVector(grid127, 5.0 * v)
    r1 = norm_linf(z) / norm_graph(z, kdv127)
    r5 = norm_linf(z5) / norm_graph(z5, kdv127)
    assert r5 == pytest.approx(r1, rel=1e-12)


def test_embedding_estimate_stable_under_refinement():
    a = estimate_embedding_constant(Grid(L, 128), n_samples=200, rng_seed=7)
    b = estimate_embedding_constant(Grid(L, 256), n_samples=200, rng_seed=7)
    assert abs(a - b) <= 0.1 * min(a, b)


def test_embedding_estimate_finite(grid127):
    est = estimate_embedding_constant(grid127, n_samples=10000, rng_seed=1)
    assert math.isfinite(est)
    assert est > 0.0


def synthetic_trajectory(grid, times, states, norm_d):
    h = grid.spacing_h
    norms = np.sqrt(h * np.sum(states * states, axis=1))
    obs = {
        "norm_l2": norms,
        "norm_linf": np.max(np.abs(states), axis=1),
        "norm_graph": norms,
        "V": norms**2,
        "V1": np.full(len(times), np.nan),
        "V2": np.full(len(times), np.nan),
        "norm_u": np.zeros(len(times)),
        "norm_d": norm_d,
    }
    return Trajectory(grid=grid, times=times, states=states, observables=obs)


def test_dissipation_report_zero_trajectory(grid127):
    times = np.linspace(0.0, 1.0, 11)
    states = np.zeros((11, 127))
    norm_d = np.abs(np.cos(times))
    traj = synthetic_trajectory(grid127, times, states, norm_d)
    report = dissipation_report(traj, "V", 1.0, rho_gain=2.0)
    np.testing.assert_allclose(report.margin, 2.0 * norm_d**2, rtol=1e-12)
    assert report.violation_count == 0
    assert report.worst_margin >= 0.0


def test_dissipation_report_requires_three_steps(grid127):
    times = np.array([0.0, 1.0])
    traj = synthetic_trajectory(grid127, times, np.zeros((2, 127)), np.zeros(2))
    with pytest.raises(ParameterError):
        dissipation_report(traj, "V", 1.0, 0.0)
    with pytest.raises(ParameterError):
        dissipation_report(synthetic_trajectory(grid127, np.linspace(0, 1, 5),
                                                np.zeros((5, 127)), np.zeros(5)),
                           "V3", 1.0, 0.0)


def test_dissipation_report_needs_the_recorded_series(kdv127, decay_C, z0_cosine):
    # V1 is read from the run, so a run without the observers cannot report it
    sys_sat = assemble_closed_loop(kdv127, hilbert_norm_map(1.0),
                                   cosine_disturbance(0.05, 1.0))
    traj = simulate(sys_sat, z0_cosine, 0.01, 1e-3)
    with pytest.raises(ParameterError, match="V1 series was not recorded"):
        dissipation_report(traj, "V1", 1.0, 0.0)
    with pytest.raises(ParameterError, match="V2 series"):
        dissipation_report(traj, "V2", 1.0, 0.0)
    params = case1_params(decay_C, hilbert_norm_map(1.0))
    traj = simulate(sys_sat, z0_cosine, 0.01, 1e-3,
                    observers=trajectory_observers(params))
    report = dissipation_report(traj, "V1", 1.0, 0.0)
    np.testing.assert_array_equal(report.V, traj.observables["V1"])
    np.testing.assert_array_equal(report.V, [v1(params, StateVector(z0_cosine.grid, z))
                                             for z in traj.states])


def test_linear_loop_satisfies_quadratic_decrease(kdv127, z0_cosine):
    # dV/dt <= -V for V = ||z||^2 along the unsaturated loop
    sys_lin = assemble_closed_loop(kdv127, None, zero_disturbance())
    traj = simulate(sys_lin, z0_cosine, 3.0, 1e-3)
    report = dissipation_report(traj, "V", alpha_coeff=1.0, rho_gain=0.0)
    assert report.violation_count == 0
    assert report.worst_margin >= 0.0


def test_case1_report_zero_violations(kdv127, decay_C, z0_cosine):
    sigma = hilbert_norm_map(1.0)
    params = case1_params(decay_C, sigma)
    assert params.M == 2.0
    alpha = case1_decrease_coeff(decay_C, params.M, params.eps1, params.eps2,
                                 params.norm_B, 1.0, params.C0)
    rho = case1_iss_gain(params.M, params.eps1, params.eps2, params.C0, params.k)
    sys_sat = assemble_closed_loop(kdv127, sigma, cosine_disturbance(0.05, 1.0))
    traj = simulate(sys_sat, z0_cosine, 2.0, 1e-3,
                    observers=trajectory_observers(params))
    report = dissipation_report(traj, "V1", alpha, rho)
    assert report.violation_count == 0


def test_case2_params_and_observers(kdv127, decay_C, grid127):
    c_s = estimate_embedding_constant(grid127, n_samples=100, rng_seed=2)
    params = case2_params(decay_C, c_s, r=2.0, margin=1.1)
    assert params.M_tilde == pytest.approx(2.2 * c_s, rel=1e-12)
    obs = trajectory_observers(params)
    assert set(obs) == {"V", "V2"}
    obs1 = trajectory_observers(case1_params(decay_C, hilbert_norm_map(1.0)))
    assert set(obs1) == {"V", "V1"}


def test_dissipation_report_csv(tmp_path, grid127):
    times = np.linspace(0.0, 1.0, 6)
    traj = synthetic_trajectory(grid127, times, np.zeros((6, 127)), np.zeros(6))
    report = dissipation_report(traj, "V", 1.0, 0.0)
    path = tmp_path / "report.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,V,dVdt,bound,margin"
    assert len(lines) == 7
