import math

import numpy as np
import pytest

from satiss import Grid, InfeasibleParameters, LyapunovParams, ParameterError, \
    StateVector, assemble_closed_loop, case1_params, case2_params, \
    cosine_disturbance, dissipation_report, estimate_embedding_constant, \
    hilbert_norm_map, measure_decay_constant, norm_graph, norm_l2, norm_linf, \
    simulate, trajectory_observers, zero_disturbance
from satiss.system import Trajectory

from conftest import L, dense_operator, random_states, simulate_states


def unit_norm_state(grid):
    n, h = grid.n_interior, grid.spacing_h
    return StateVector(grid, np.full(n, 1.0 / math.sqrt(h * n)))


def series(params, which, states):
    """The ``which`` series of ``params`` over a trajectory through ``states``."""
    grid = states[0].grid
    rows = np.array([z.values for z in states])
    traj = synthetic_trajectory(grid, np.arange(len(rows), dtype=float), rows,
                                np.zeros(len(rows)))
    return trajectory_observers(params)[which](traj)


def test_v1_arithmetic(grid127):
    zero = StateVector(grid127, np.zeros(127))
    values = series(LyapunovParams(M=3.0), "V1", [zero, unit_norm_state(grid127)])
    assert values[0] == 0.0
    assert values[1] == pytest.approx(3.0, rel=1e-12)
    assert trajectory_observers(LyapunovParams()) == {}


def test_v1_coercive_and_radially_unbounded(grid127):
    params = LyapunovParams(M=2.0)
    states = random_states(grid127, 1000, seed=10)
    nsq = np.array([norm_l2(z) ** 2 for z in states])
    assert np.all(series(params, "V1", states) >= nsq * (1.0 - 1e-12))
    z = unit_norm_state(grid127)
    values = series(params, "V1", [StateVector(grid127, t * z.values)
                                   for t in (10, 100, 1000)])
    assert values[0] < values[1] < values[2]


def test_v2_arithmetic_and_sandwich(grid127):
    zero = StateVector(grid127, np.zeros(127))
    values = series(LyapunovParams(M_tilde=3.0, r=2.0), "V2",
                    [zero, unit_norm_state(grid127)])
    assert values[0] == 0.0
    assert values[1] == pytest.approx(7.0, rel=1e-12)
    assert "V2" not in trajectory_observers(LyapunovParams(M_tilde=1.0))

    # with the identity weight V2 = (1 + M~ r) ||z||^2
    states = random_states(grid127, 1000, seed=11)
    nsq = np.array([norm_l2(z) ** 2 for z in states])
    np.testing.assert_allclose(series(LyapunovParams(M_tilde=1.7, r=0.8), "V2", states),
                               (1.0 + 1.7 * 0.8) * nsq, rtol=1e-12)


def test_v1_v2_positive_definite(grid127):
    states = random_states(grid127, 200, seed=12)
    assert np.all(series(LyapunovParams(M=1.0), "V1", states) > 0.0)
    assert np.all(series(LyapunovParams(M_tilde=1.0, r=1.0), "V2", states) > 0.0)


def test_measure_decay_constant(grid127, kdv127, decay_C):
    minus_identity = dense_operator(grid127, -np.eye(127))
    assert measure_decay_constant(minus_identity) == pytest.approx(2.0, rel=1e-12)
    # identity feedback shifts the spectrum by -1, so C is a bit above 2
    assert 1.9 <= decay_C <= 2.2


def test_case1_params_kdv_instance(decay_C):
    # the Hilbert retraction at level 1 has C0 = k = 3
    params = case1_params(decay_C, hilbert_norm_map(1.0))
    M, eps1, eps2 = params.M, params.eps1, params.eps2
    assert (M, params.C0, params.k) == (2.0, 3.0, 3.0)
    # both constraint terms equal C/4 by construction at a share of 1/2
    assert 2.0 * M * 3.0 / eps2 == pytest.approx(decay_C / 4.0, rel=1e-12)
    assert 1.0 / eps1 == pytest.approx(decay_C / 4.0, rel=1e-12)
    assert params.alpha == pytest.approx(0.5 * decay_C, rel=1e-12)
    assert params.rho == pytest.approx(3.0 * 2.0 * M * eps2 + 9.0 * eps1, rel=1e-12)
    assert params.rho > 0.0


def test_case1_params_rejects_bad_inputs():
    sigma = hilbert_norm_map(1.0)
    with pytest.raises(InfeasibleParameters):
        case1_params(0.0, sigma)
    with pytest.raises(InfeasibleParameters):
        case1_params(-2.0, sigma)


def test_case2_params_and_rate():
    assert case2_params(2.0, 1.0, 1.0).M_tilde == pytest.approx(2.2, rel=1e-12)
    for C, c_S, r in ((0.0, 1.0, 1.0), (2.0, 0.0, 1.0), (2.0, -1.0, 1.0),
                      (2.0, 1.0, 0.0), (2.0, 1.0, math.nan)):
        with pytest.raises(ParameterError, match="must be positive"):
            case2_params(C, c_S, r)
    # decay rate mu = C / (1 + M~ r) shrinks as the data radius grows
    rates = [case2_params(2.0, 1.0, r).mu for r in (0.5, 1.0, 2.0, 4.0)]
    assert rates[0] == pytest.approx(2.0 / (1.0 + 2.2 * 0.5), rel=1e-12)
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
        "norm_u": np.zeros(len(times)),
        "norm_d": norm_d,
    }
    return Trajectory(grid=grid, times=times, observables=obs)


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
    # V1 is read from the trajectory, so a run whose series were not filled
    # in cannot report it
    sys_sat = assemble_closed_loop(kdv127, hilbert_norm_map(1.0),
                                   cosine_disturbance(0.05, 1.0))
    traj, states = simulate_states(sys_sat, z0_cosine, 0.01, 1e-3)
    with pytest.raises(ParameterError, match="V1 series was not recorded"):
        dissipation_report(traj, "V1", 1.0, 0.0)
    with pytest.raises(ParameterError, match="V2 series"):
        dissipation_report(traj, "V2", 1.0, 0.0)
    params = case1_params(decay_C, hilbert_norm_map(1.0))
    traj.observables.update((name, f(traj)) for name, f
                            in trajectory_observers(params).items())
    report = dissipation_report(traj, "V1", 1.0, 0.0)
    np.testing.assert_array_equal(report.V, traj.observables["V1"])
    # bit for bit the per-state form <z, z> + (2 M / 3) ||z||^3
    h = z0_cosine.grid.spacing_h
    per_state = [h * float(np.dot(z, z)) for z in states]
    np.testing.assert_array_equal(report.V, [v + (2.0 * params.M / 3.0) * math.sqrt(v) ** 3
                                             for v in per_state])


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
    sys_sat = assemble_closed_loop(kdv127, sigma, cosine_disturbance(0.05, 1.0))
    traj = simulate(sys_sat, z0_cosine, 2.0, 1e-3)
    traj.observables.update((name, f(traj)) for name, f
                            in trajectory_observers(params).items())
    report = dissipation_report(traj, "V1", params.alpha, params.rho)
    assert report.violation_count == 0


def test_case2_params_and_observers(kdv127, decay_C, grid127):
    c_s = estimate_embedding_constant(grid127, n_samples=100, rng_seed=2)
    params = case2_params(decay_C, c_s, r=2.0)
    assert params.M_tilde == pytest.approx(2.2 * c_s, rel=1e-12)
    obs = trajectory_observers(params)
    assert set(obs) == {"V2"}
    obs1 = trajectory_observers(case1_params(decay_C, hilbert_norm_map(1.0)))
    assert set(obs1) == {"V1"}


def test_dissipation_report_csv(tmp_path, grid127):
    times = np.linspace(0.0, 1.0, 6)
    traj = synthetic_trajectory(grid127, times, np.zeros((6, 127)), np.zeros(6))
    report = dissipation_report(traj, "V", 1.0, 0.0)
    path = tmp_path / "report.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,V,dVdt,bound,margin"
    assert len(lines) == 7


@pytest.mark.parametrize("level, name", [(1e307, "eps2"), (1e300, "rho")])
def test_case1_params_reject_non_finite_constants(decay_C, level, name):
    # C0 = 3 level stays finite; eps2 = 16 C0 / C overflows at 1e307 and
    # the gain C0 * 2M * eps2 ~ level^2 already at 1e300
    with pytest.raises(ParameterError, match="case-1 constant %s = inf" % name):
        case1_params(decay_C, hilbert_norm_map(level))
    assert math.isfinite(case1_params(decay_C, hilbert_norm_map(1e100)).rho)
